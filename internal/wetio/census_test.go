package wetio

// The load census pins what both load policies make of a fixed set of
// damaged containers: for every mutation, the strict error (or "ok"), the
// salvage report or error, and the control-flow length of the salvaged
// trace. A change to the loader that moves any of them shows as a diff of
// testdata/load_census.json; regenerate it only on a commit whose load
// behaviour is meant to be the new reference:
//
//	go test ./internal/wetio/ -run TestLoadCensus -update-golden

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wet/internal/core"
	"wet/internal/interp"
	"wet/internal/ir"
	"wet/internal/query"
	"wet/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/load_census.json from this build")

const censusFile = "testdata/load_census.json"

// censusFixtures builds the containers the census damages: li as v3 and as
// v4, a concurrent run as v4, and byte-budgeted li (degraded to 70% of its
// lossless floor) as v3 and v4, so the fidelity and conc sections are
// damaged too.
func censusFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	li, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	liConc, err := workload.ConcByName("li-conc-racy")
	if err != nil {
		t.Fatal(err)
	}
	build := func(wl func(int) (*ir.Program, []int64), seed uint64, fopts core.FreezeOptions) []byte {
		prog, in := wl(1)
		st, err := interp.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		w, _, _, err := core.BuildStreaming(st, interp.Options{Inputs: in, Seed: seed}, fopts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fx := map[string][]byte{
		"li_v3":   build(li.Build, 0, core.FreezeOptions{}),
		"li_v4":   build(li.Build, 0, core.FreezeOptions{EpochTS: 256}),
		"conc_v4": build(liConc.Build, 1, core.FreezeOptions{EpochTS: 256}),
	}
	for _, epochTS := range []uint32{0, 256} {
		floor := len(build(li.Build, 0, core.FreezeOptions{EpochTS: epochTS}))
		fx[fmt.Sprintf("budget_epoch%d", epochTS)] = build(li.Build, 0,
			core.FreezeOptions{EpochTS: epochTS, ByteBudget: uint64(floor) * 7 / 10})
	}
	return fx
}

// censusMutation is one damaged copy of a fixture.
type censusMutation struct {
	name string
	data []byte
}

// censusMutations damages data about a hundred ways: one payload byte
// flipped in up to 12 sections (header, program, report, fidelity, conc, the
// first and last node and edge records, then evenly spaced others),
// truncation one byte before, at and after each of those sections' frames,
// and 52 seeded stomps of 1-4 random runs of up to 64 random bytes.
func censusMutations(t *testing.T, data []byte) []censusMutation {
	t.Helper()
	secs := mustScan(t, data)
	pick := map[int]bool{}
	firstLast := map[uint8][2]int{}
	for i, s := range secs {
		fl, ok := firstLast[s.tag]
		if !ok {
			fl[0] = i
		}
		fl[1] = i
		firstLast[s.tag] = fl
	}
	for _, tag := range []uint8{secHeader, secProgram, secReport, secFidelity, secConc, secNode, secEdge} {
		if fl, ok := firstLast[tag]; ok {
			pick[fl[0]], pick[fl[1]] = true, true
		}
	}
	for i := 0; len(pick) < 12 && i < len(secs); i += len(secs)/12 + 1 {
		pick[i] = true
	}
	var muts []censusMutation
	for i, s := range secs {
		if !pick[i] {
			continue
		}
		mut := bytes.Clone(data)
		at := s.offset + 5 + int64(len(s.payload))/2 // the CRC's first byte when the payload is empty
		mut[at] ^= 0x10
		muts = append(muts, censusMutation{fmt.Sprintf("flip %s@%d", s.name(), at), mut})
		for _, cut := range []int64{s.offset - 1, s.offset, s.offset + 1} {
			muts = append(muts, censusMutation{fmt.Sprintf("cut %d", cut), data[:cut]})
		}
	}
	rng := rand.New(rand.NewSource(int64(len(data))))
	for trial := 0; trial < 52; trial++ {
		mut := bytes.Clone(data)
		for r := 1 + rng.Intn(4); r > 0; r-- {
			start, length := rng.Intn(len(mut)), 1+rng.Intn(64)
			for i := start; i < start+length && i < len(mut); i++ {
				mut[i] = byte(rng.Int())
			}
		}
		muts = append(muts, censusMutation{fmt.Sprintf("stomp %d", trial), mut})
	}
	return muts
}

// censusSalvage is one salvage load's outcome: the report and the salvaged
// trace's control-flow length, or the error.
func censusSalvage(t *testing.T, data []byte, workers int) string {
	w, rep, err := loadNoPanic(t, data, LoadOptions{Salvage: true, Workers: workers}, "census salvage")
	if err != nil {
		return "error: " + err.Error()
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := query.ExtractCFCtx(context.Background(), w, core.Tier2, true, -1, nil)
	return fmt.Sprintf("%s cf=%d/%v", js, cf, err)
}

// TestLoadCensus loads every census mutation strictly and in salvage mode
// and compares the outcomes with testdata/load_census.json. Salvage must
// come out the same whether its records decode on one worker or four.
func TestLoadCensus(t *testing.T) {
	got := map[string][]string{}
	for name, data := range censusFixtures(t) {
		for _, m := range censusMutations(t, data) {
			strict := "ok"
			if _, _, err := loadNoPanic(t, m.data, LoadOptions{}, "census strict"); err != nil {
				strict = err.Error()
			}
			salvage := censusSalvage(t, m.data, 1)
			if four := censusSalvage(t, m.data, 4); four != salvage {
				t.Errorf("%s %s: salvage at 4 workers differs from 1 worker:\n 4: %s\n 1: %s", name, m.name, four, salvage)
			}
			got[name] = append(got[name], fmt.Sprintf("%s | strict: %s | salvage: %s", m.name, strict, salvage))
		}
	}
	path := filepath.FromSlash(censusFile)
	if *updateGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, lines := range got {
		if len(lines) != len(want[name]) {
			t.Errorf("%s: %d mutations, census has %d", name, len(lines), len(want[name]))
			continue
		}
		for i, line := range lines {
			if line != want[name][i] {
				t.Errorf("%s mutation %d:\n got  %s\n want %s", name, i, line, want[name][i])
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d fixtures, census has %d", len(got), len(want))
	}
}
