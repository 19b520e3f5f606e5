package core

// Pins §3.2 group formation across changes to how groups are formed:
// testdata/golden_groups.json (at the repository root, beside
// golden_bytes.json) holds one digest per program of every executed path
// node's Members, Inputs, key plan, ValMembers and GroupOf. Regenerate it,
// on a commit whose groups are meant to be the reference, with
//
//	go test ./internal/core/ -run TestGoldenGroups -update-golden
//
// (the package goes first: go test hands everything after an unknown flag
// to the test binary).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/progen"
	"wet/internal/trace"
	"wet/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_groups.json from this build")

// progenSeeds is how many progen programs (seeds 0..progenSeeds-1) the
// progen entry digests.
const progenSeeds = 200

type goldenGroups struct {
	Program string `json:"program"`
	Nodes   int    `json:"nodes"`
	Groups  int    `json:"groups"`
	SHA256  string `json:"sha256"`
}

// pathLog is a trace.Sink keeping the distinct (function, path id) pairs a
// run executes, in first-execution order.
type pathLog struct {
	seen  map[[2]int64]bool
	paths [][2]int64
}

func (l *pathLog) Stmt(trace.Inst, *ir.Stmt, int64, []trace.Inst, []int64, trace.Inst) {}

func (l *pathLog) PathDone(fn int, pathID int64) {
	k := [2]int64{int64(fn), pathID}
	if !l.seen[k] {
		l.seen[k] = true
		l.paths = append(l.paths, k)
	}
}

// digestGroups restores the node of every path p executes (a run stopped by
// maxSteps keeps the paths it reached) and folds its groups into h.
func digestGroups(t *testing.T, h hash.Hash, p *ir.Program, in []int64, maxSteps uint64) (nodes, groups int) {
	t.Helper()
	st, err := interp.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	log := &pathLog{seen: map[[2]int64]bool{}}
	interp.Run(st, interp.Options{Inputs: in, Sink: log, MaxSteps: maxSteps})
	for id, k := range log.paths {
		n, err := RestoreNode(st, id, int(k[0]), k[1])
		if err != nil {
			t.Fatalf("path %v: %v", k, err)
		}
		fmt.Fprintf(h, "node %d/%d groupof %v\n", k[0], k[1], n.GroupOf)
		for _, g := range n.Groups {
			fmt.Fprintf(h, "members %v inputs %v plan %v vals %v\n", g.Members, g.Inputs, g.keyPlan, g.ValMembers)
		}
		groups += len(n.Groups)
	}
	return len(log.paths), groups
}

func goldenGroupsNow(t *testing.T) []goldenGroups {
	var out []goldenGroups
	add := func(name string, digest func(h hash.Hash) (int, int)) {
		h := sha256.New()
		nodes, groups := digest(h)
		out = append(out, goldenGroups{Program: name, Nodes: nodes, Groups: groups, SHA256: hex.EncodeToString(h.Sum(nil))})
	}
	for _, wl := range workload.All() {
		add(wl.Name, func(h hash.Hash) (int, int) {
			p, in := wl.Build(1)
			return digestGroups(t, h, p, in, 0)
		})
	}
	add(fmt.Sprintf("progen/0-%d", progenSeeds-1), func(h hash.Hash) (nodes, groups int) {
		for seed := int64(0); seed < progenSeeds; seed++ {
			p, in, err := progen.Gen(rand.New(rand.NewSource(seed)), progen.DefaultOpts())
			if err != nil {
				t.Fatalf("seed %d: Gen: %v", seed, err)
			}
			fmt.Fprintf(h, "seed %d\n", seed)
			n, g := digestGroups(t, h, p, in, 200_000)
			nodes, groups = nodes+n, groups+g
		}
		return nodes, groups
	})
	return out
}

func TestGoldenGroups(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "golden_groups.json")
	got := goldenGroupsNow(t)
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
	var want []goldenGroups
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test digests %d programs", path, len(want), len(got))
	}
	for i, g := range got {
		if g != want[i] {
			t.Errorf("%s: %d nodes, %d groups, sha256 %s; golden %+v", g.Program, g.Nodes, g.Groups, g.SHA256, want[i])
		}
	}
}
