package wet_test

// Pins the bytes wet.Run + Save produce across PRs. Tier-2 method selection
// decides every stream's encoding, so a change to it that is meant to be
// exact must reproduce testdata/golden_bytes.json (container SHA-256 and
// the Methods census) to the last byte. Regenerate the file on the commit
// whose bytes are the reference with
//
//	go test -run TestGoldenBytes -update-golden .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bytes.json from this build")

type goldenEntry struct {
	Workload string         `json:"workload"`
	EpochTS  uint32         `json:"epoch_ts"`
	Bytes    int            `json:"bytes"`
	SHA256   string         `json:"sha256"`
	Methods  map[string]int `json:"methods"`
}

// goldenCases are the bench's record programs on both build routes, plus li
// at the size of internal/wetio/testdata's fixtures (scale 1, one epoch).
var goldenCases = []struct {
	workload string
	epochTS  uint32
}{
	{"gcc", 0}, {"gcc", 1 << 11},
	{"mcf", 0}, {"mcf", 1 << 11},
	{"li", 0},
}

func goldenRun(t *testing.T, name string, epochTS uint32) goldenEntry {
	t.Helper()
	wl, err := wet.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, inputs := wl.Build(1)
	tr, _, err := wet.Run(prog, wet.WithInputs(inputs...), wet.WithEpochTS(epochTS))
	if err != nil {
		t.Fatalf("%s/%d: %v", name, epochTS, err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("%s/%d: save: %v", name, epochTS, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return goldenEntry{
		Workload: name, EpochTS: epochTS, Bytes: buf.Len(),
		SHA256: hex.EncodeToString(sum[:]), Methods: tr.Report().Size.Methods,
	}
}

func TestGoldenBytes(t *testing.T) {
	path := filepath.Join("testdata", "golden_bytes.json")
	var got []goldenEntry
	for _, c := range goldenCases {
		got = append(got, goldenRun(t, c.workload, c.epochTS))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test runs %d cases", path, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		id := fmt.Sprintf("%s/epoch_ts=%d", g.Workload, g.EpochTS)
		if w.Workload != g.Workload || w.EpochTS != g.EpochTS {
			t.Fatalf("entry %d is %s/epoch_ts=%d, want %s", i, w.Workload, w.EpochTS, id)
		}
		if g.Bytes != w.Bytes || g.SHA256 != w.SHA256 {
			t.Errorf("%s: container is %d bytes sha256 %s, golden %d bytes %s", id, g.Bytes, g.SHA256, w.Bytes, w.SHA256)
		}
		if !reflect.DeepEqual(g.Methods, w.Methods) {
			t.Errorf("%s: method census %v, golden %v", id, g.Methods, w.Methods)
		}
	}
}
