package exp

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// smallRuns builds a two-workload run set once for all harness tests.
func smallRuns(t *testing.T) []*Run {
	t.Helper()
	runs, err := RunAll(context.Background(), Config{TargetStmts: 30_000, Workloads: []string{"li", "twolf"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestTablesProduceRows(t *testing.T) {
	runs := smallRuns(t)
	var buf bytes.Buffer
	Table1(runs, &buf)
	Table2(runs, &buf)
	Table3(runs, &buf)
	Table4(runs, &buf)
	Table5(runs, &buf)
	Table6(runs, &buf)
	if err := Table7(runs, &buf); err != nil {
		t.Fatal(err)
	}
	if err := Table8(runs, &buf); err != nil {
		t.Fatal(err)
	}
	if err := Table9(runs, 5, &buf); err != nil {
		t.Fatal(err)
	}
	Figure8(runs, &buf)
	MethodCensus(runs, &buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Table 6", "Table 7", "Table 8", "Table 9", "Figure 8",
		"li", "twolf", "Avg.",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9Rows(t *testing.T) {
	var buf bytes.Buffer
	err := Figure9(context.Background(), Config{TargetStmts: 40_000, Workloads: []string{"li"}}, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 9") || !strings.Contains(buf.String(), "li") {
		t.Fatalf("figure 9 output:\n%s", buf.String())
	}
	// Four ratio columns must be present and positive.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	fields := strings.Fields(last)
	if len(fields) != 5 {
		t.Fatalf("figure 9 row has %d fields: %q", len(fields), last)
	}
}

func TestSliceCriteriaSpread(t *testing.T) {
	runs := smallRuns(t)
	crit := SliceCriteria(runs[0].W, 10)
	if len(crit) < 8 {
		t.Fatalf("only %d criteria found", len(crit))
	}
	seen := map[int]bool{}
	for _, c := range crit {
		seen[c.Node*1000000+c.Ord] = true
	}
	if len(seen) < len(crit)/2 {
		t.Fatalf("criteria not spread: %d unique of %d", len(seen), len(crit))
	}
}

func TestBuildRunMetadata(t *testing.T) {
	runs := smallRuns(t)
	for _, r := range runs {
		if r.Stmts < 30_000 {
			t.Fatalf("%s ran only %d statements", r.Name, r.Stmts)
		}
		if r.BuildTime <= 0 {
			t.Fatalf("%s has no build time", r.Name)
		}
		if r.Arch == nil || r.Arch.Branches == 0 {
			t.Fatalf("%s has no architecture profile", r.Name)
		}
		if r.Rep.T2Total() == 0 {
			t.Fatalf("%s has empty size report", r.Name)
		}
	}
}

func TestRunAllUnknownWorkload(t *testing.T) {
	if _, err := RunAll(context.Background(), Config{Workloads: []string{"nope"}}, nil); err == nil {
		t.Fatal("RunAll accepted unknown workload")
	}
}

func TestAblations(t *testing.T) {
	runs := smallRuns(t)
	var buf bytes.Buffer
	if err := AblationBLvsBB(context.Background(), "li", 20_000, &buf); err != nil {
		t.Fatal(err)
	}
	AblationStreamMethods(runs, &buf)
	var grouping bytes.Buffer
	if err := AblationValueGrouping(context.Background(), "li", 20_000, &grouping); err != nil {
		t.Fatal(err)
	}
	buf.Write(grouping.Bytes())
	AblationLocalTS(runs, &buf)
	AblationSelection(runs, &buf)
	if err := AblationAggressiveEdges(context.Background(), "li", 20_000, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ball-Larus", "basic blocks", "sequitur", "grouping", "local", "adaptive", "diagonal"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
	// Grouping must shrink the tier-1 values below the raw per-execution
	// cost the "off" row charges.
	t1 := map[string]float64{}
	for _, line := range strings.Split(grouping.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && (f[0] == "on" || f[0] == "off") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			t1[f[0]] = v
		}
	}
	if len(t1) != 2 || t1["on"] >= t1["off"] {
		t.Fatalf("grouping did not reduce tier-1 values (%v):\n%s", t1, grouping.String())
	}
}
