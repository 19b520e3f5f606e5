package wet_test

import (
	"bytes"
	"errors"
	"fmt"

	"wet"
)

// ExampleTrace_WET builds a tiny program, compresses its whole execution
// trace, and reads a value back through the compressed representation.
func ExampleTrace_WET() {
	prog, err := wet.ParseProgram(`
func main() {
    x = const 6
    y = mul x, 7
    output y
    halt
}
`)
	if err != nil {
		panic(err)
	}
	tr, res, err := wet.Run(prog)
	if err != nil {
		panic(err)
	}
	w := tr.WET()

	fmt.Println("statements:", res.Steps)
	// Read the mul's value from the WET.
	for _, s := range prog.Stmts {
		if s.Op == wet.OpMul {
			v, _ := w.Value(w.Nodes[w.StmtOcc[s.ID][0].Node], w.StmtOcc[s.ID][0].Pos, 0, wet.Tier2)
			fmt.Println("mul produced:", v)
		}
	}
	// Output:
	// statements: 4
	// mul produced: 42
}

// ExampleTrace_ExtractControlFlow reconstructs the exact statement-level
// control flow trace from the compressed WET, in both directions.
func ExampleTrace_ExtractControlFlow() {
	prog, err := wet.ParseProgram(`
func main() {
    i = const 2
loop:
    c = gt i, 0
    br c, body, done
body:
    i = sub i, 1
    jmp loop
done:
    halt
}
`)
	if err != nil {
		panic(err)
	}
	tr, _, err := wet.Run(prog)
	if err != nil {
		panic(err)
	}
	fwd := tr.ExtractControlFlow(true, nil)
	bwd := tr.ExtractControlFlow(false, nil)
	fmt.Println("forward:", fwd, "backward:", bwd)
	// Output:
	// forward: 13 backward: 13
}

// ExampleTrace_Backward slices backward from a program's output: the slice
// holds every dynamic instance that contributed to it.
func ExampleTrace_Backward() {
	prog, err := wet.ParseProgram(`
func main() {
    a = input
    b = mul a, 3
    dead = const 99
    output b
    halt
}
`)
	if err != nil {
		panic(err)
	}
	tr, _, err := wet.Run(prog, wet.WithInputs(5))
	if err != nil {
		panic(err)
	}
	var outID int
	for _, s := range prog.Stmts {
		if s.Op == wet.OpOutput {
			outID = s.ID
		}
	}
	ref := tr.WET().StmtOcc[outID][0]
	sl, err := tr.Backward(wet.Instance{Node: ref.Node, Pos: ref.Pos, Ord: 0}, 0)
	if err != nil {
		panic(err)
	}
	// output <- mul <- input; the dead const is not in the slice.
	fmt.Println("slice size:", len(sl.Instances))
	// Output:
	// slice size: 3
}

// ExampleCompressBest shows the tier-2 compressor standalone: a strided
// sequence collapses to almost nothing yet steps bidirectionally.
func ExampleCompressBest() {
	vals := make([]uint32, 10000)
	for i := range vals {
		vals[i] = uint32(1000 + 4*i)
	}
	s := wet.CompressBest(vals)
	fmt.Println("method:", s.Name())
	fmt.Println("compressed bits per value:", s.SizeBits()/uint64(len(vals)))
	c := s.NewCursor()
	fmt.Println("first:", c.Next())
	for c.Pos() < c.Len() {
		c.Next()
	}
	fmt.Println("last:", c.Prev())
	// Output:
	// method: lastS2
	// compressed bits per value: 2
	// first: 1000
	// last: 40996
}

// ExampleRun is the handle-based quick start: build, freeze, and query a
// program's whole execution trace through one wet.Trace value. EpochTS
// selects the epoch-segmented streaming pipeline — the profile is tier-2
// compressed in fixed-size timestamp epochs while the program runs.
func ExampleRun() {
	prog, err := wet.ParseProgram(`
func main() {
    i = const 300
    acc = const 0
loop:
    acc = add acc, i
    i = sub i, 1
    c = gt i, 0
    br c, loop, done
done:
    output acc
    halt
}
`)
	if err != nil {
		panic(err)
	}
	t, res, err := wet.Run(prog, wet.WithEpochTS(64))
	if err != nil {
		panic(err)
	}
	fmt.Println("steps:", res.Steps)
	fmt.Println("segmented:", t.Segmented(), "epochs:", t.Epochs())
	fmt.Println("forward:", t.ExtractControlFlow(true, nil))
	fmt.Println("backward:", t.ExtractControlFlow(false, nil))

	// Trace the accumulator's values across the run.
	var accID int
	for _, s := range prog.Stmts {
		if s.Op == wet.OpAdd {
			accID = s.ID
		}
	}
	var last int64
	n, err := t.ValueTrace(accID, func(s wet.Sample) { last = s.Value })
	if err != nil {
		panic(err)
	}
	fmt.Println("adds:", n, "final acc:", last)

	// Slice backward from the output through the dependence edges.
	var outID int
	for _, s := range prog.Stmts {
		if s.Op == wet.OpOutput {
			outID = s.ID
		}
	}
	inst, err := t.InstanceOfTS(outID, t.Time())
	if err != nil {
		panic(err)
	}
	sl, err := t.Backward(inst, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("slice instances:", len(sl.Instances))
	// Output:
	// steps: 1205
	// segmented: true epochs: 5
	// forward: 1205
	// backward: 1205
	// adds: 300 final acc: 45150
	// slice instances: 1200
}

// ExampleOpen round-trips a trace through the file format and back via the
// unified Open entry point, covering the verify-only and strict paths.
func ExampleOpen() {
	prog, err := wet.ParseProgram(`
func main() {
    i = const 10
loop:
    i = sub i, 1
    c = gt i, 0
    br c, loop, done
done:
    halt
}
`)
	if err != nil {
		panic(err)
	}
	t, _, err := wet.Run(prog, wet.WithEpochTS(8))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		panic(err)
	}

	// Verify-only: a checksum walk, no trace constructed.
	_, rep, err := wet.Open(bytes.NewReader(buf.Bytes()), wet.WithVerifyOnly())
	if err != nil {
		panic(err)
	}
	fmt.Println("version:", rep.Version, "intact:", rep.Verify.OK())

	// Strict load: the opened trace reads what was recorded.
	got, _, err := wet.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		panic(err)
	}
	fmt.Println("recorded:", t.ExtractControlFlow(true, nil),
		"opened:", got.ExtractControlFlow(true, nil))
	// Output:
	// version: 4 intact: true
	// recorded: 33 opened: 33
}

// ExampleTrace_ExtractCFRange extracts a window of the control-flow trace;
// an inverted window is a typed error, not a silent empty result.
func ExampleTrace_ExtractCFRange() {
	prog, err := wet.ParseProgram(`
func main() {
    i = const 5
loop:
    i = sub i, 1
    c = gt i, 0
    br c, loop, done
done:
    halt
}
`)
	if err != nil {
		panic(err)
	}
	t, _, err := wet.Run(prog)
	if err != nil {
		panic(err)
	}
	n, err := t.ExtractCFRange(2, 7, nil)
	fmt.Println("window:", n, err)
	var re *wet.RangeError
	if _, err := t.ExtractCFRange(7, 2, nil); errors.As(err, &re) {
		fmt.Println("inverted:", re)
	}
	// Output:
	// window: 13 <nil>
	// inverted: query: inverted timestamp range [7, 2]
}
