package wet_test

// Tests of the coherent report family behind wet.Report(): the snake_case
// JSON casing audit that round-trips every report type through
// encoding/json, and the bundle accessor's wiring.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"wet"
)

// snakeKey is the one casing the report family speaks in JSON.
var snakeKey = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// auditKeys walks a decoded JSON value and reports every object key that
// is not snake_case.
func auditKeys(v any, path string, bad *[]string) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			if !snakeKey.MatchString(k) {
				*bad = append(*bad, path+"."+k)
			}
			auditKeys(sub, path+"."+k, bad)
		}
	case []any:
		for i, sub := range x {
			auditKeys(sub, fmt.Sprintf("%s[%d]", path, i), bad)
		}
	}
}

// TestReportFamilyJSONCasing round-trips every report of the family
// through encoding/json with all fields populated, asserting (a) every
// emitted key is snake_case at every nesting level and (b) the decode ⇄
// re-encode round trip is lossless.
func TestReportFamilyJSONCasing(t *testing.T) {
	fidelity := &wet.FidelityReport{
		BudgetBytes: 1 << 20, FloorBytes: 1 << 21, AchievedBytes: 1<<20 - 7,
		GroupsKept: 3, EdgesKept: 4,
		DroppedGroups:    []wet.DroppedGroup{{Node: 1, Group: 2, SavedBytes: 900}},
		DroppedEdges:     []wet.DroppedEdge{{Edge: 5, SavedBytes: 400}},
		LostCapabilities: []string{wet.CapValues, wet.CapDependences},
	}
	salvage := &wet.SalvageReport{
		Version: 4, SectionsRead: 6, SectionsDropped: 1, BytesSkipped: 512,
		Truncated: true, NodesLoaded: 10, NodesDropped: 2, EdgesLoaded: 20,
		EdgesDropped: 3, Adjustments: []string{"edge 7 re-owned"},
	}
	open := &wet.OpenReport{
		Version: 4,
		Verify: &wet.VerifyResult{
			Version:     4,
			Sections:    []wet.SectionStatus{{Section: "header", Offset: 6, Length: 40, CRCOK: true}},
			BadSections: 1, TailSkipped: 9, Truncated: true,
		},
		Salvage: salvage,
	}
	bundle := &wet.Report{
		Size:     &wet.SizeReport{OrigTS: 1, T1TS: 2, T2TS: 3, Methods: map[string]int{"packed0": 4}},
		Fidelity: fidelity,
		Salvage:  salvage,
	}

	for name, rep := range map[string]any{
		"OpenReport":     open,
		"FidelityReport": fidelity,
		"SalvageReport":  salvage,
		"Report":         bundle,
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var decoded any
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			var bad []string
			auditKeys(decoded, name, &bad)
			if len(bad) > 0 {
				t.Fatalf("non-snake_case JSON keys: %v", bad)
			}
			// Round trip: decode into a fresh value of the same type and
			// re-encode; a field without a working tag would not survive.
			fresh := reflect.New(reflect.TypeOf(rep).Elem()).Interface()
			if err := json.Unmarshal(data, fresh); err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("lossy round trip:\n first %s\nsecond %s", data, again)
			}
		})
	}
}

// TestReportBundleWiring pins what Trace.Report() carries for each way a
// trace is produced: Size after any freeze, Fidelity only for budgeted
// freezes, Salvage only for salvage opens.
func TestReportBundleWiring(t *testing.T) {
	plain := runWorkload(t, "li")
	r := plain.Report()
	if r.Size == nil || r.Fidelity != nil || r.Salvage != nil {
		t.Fatalf("plain run bundle: %+v", r)
	}

	data := saveBytes(t, plain)
	floor := uint64(len(data))
	budgeted := runWorkload(t, "li", wet.WithByteBudget(floor*3/4))
	r = budgeted.Report()
	if r.Size == nil || r.Fidelity != budgeted.Fidelity() || !r.Fidelity.Degraded() {
		t.Fatalf("budgeted run bundle: %+v", r)
	}

	opened, _, err := wet.Open(bytes.NewReader(data), wet.WithSalvage())
	if err != nil {
		t.Fatal(err)
	}
	r = opened.Report()
	if r.Salvage == nil || !r.Salvage.Clean() {
		t.Fatalf("salvage open bundle: %+v", r)
	}
}
