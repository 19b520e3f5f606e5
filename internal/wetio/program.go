package wetio

import (
	"fmt"

	"wet/internal/ir"
	"wet/internal/wire"
)

func saveProgram(w *wire.Enc, p *ir.Program) {
	w.I64(p.MemWords)
	w.I32(int32(p.Entry))
	w.U32(uint32(len(p.Funcs)))
	for _, f := range p.Funcs {
		putString(w, f.Name)
		w.I32(int32(f.Params))
		w.I32(int32(f.NumRegs))
		w.U32(uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			putInts(w, b.Succs)
			w.U32(uint32(len(b.Stmts)))
			for _, s := range b.Stmts {
				saveStmt(w, s)
			}
		}
	}
}

func saveStmt(w *wire.Enc, s *ir.Stmt) {
	w.U8(uint8(s.Op))
	w.I32(int32(s.Dest))
	saveOperand(w, s.A)
	saveOperand(w, s.B)
	w.I64(s.Off)
	if s.Op == ir.OpCall || s.Op == ir.OpSpawn {
		putString(w, s.CalleeName)
		w.U32(uint32(len(s.Args)))
		for _, a := range s.Args {
			saveOperand(w, a)
		}
	}
}

func saveOperand(w *wire.Enc, o ir.Operand) {
	w.Bool(o.IsReg)
	w.I32(int32(o.Reg))
	w.I64(o.Imm)
}

func loadOperand(d *wire.Dec) ir.Operand {
	isReg, reg, imm := d.U8(), d.I32(), d.I64()
	return ir.Operand{IsReg: isReg == 1, Reg: ir.Reg(reg), Imm: imm}
}

// Smallest encodings of the program's repeated units, for bounding their
// counts by the bytes present.
const (
	minOperandBytes = 1 + 4 + 8
	minStmtBytes    = 1 + 4 + 2*minOperandBytes + 8
	minBlockBytes   = 4 + 4
	minFuncBytes    = 4 + 4 + 4 + 4
)

func loadProgram(d *wire.Dec) (*ir.Program, error) {
	memWords, entry := d.I64(), d.I32()
	nFuncs := d.Count(minFuncBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	p := ir.NewProgram(memWords)
	p.Entry = int(entry)
	for fi := 0; fi < nFuncs; fi++ {
		name := readString(d)
		params, numRegs := d.I32(), d.I32()
		nBlocks := d.Count(minBlockBytes)
		f := &ir.Func{Name: name, Params: int(params), NumRegs: int(numRegs)}
		for bi := 0; bi < nBlocks; bi++ {
			succs, err := readInts(d)
			if err != nil {
				return nil, err
			}
			b := &ir.Block{ID: bi, Succs: succs}
			nStmts := d.Count(minStmtBytes)
			for si := 0; si < nStmts; si++ {
				b.Stmts = append(b.Stmts, loadStmt(d))
			}
			f.Blocks = append(f.Blocks, b)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		p.AddRawFunc(f)
	}
	if err := p.Finalize(); err != nil {
		return nil, fmt.Errorf("wetio: refinalize: %w", err)
	}
	return p, nil
}

func loadStmt(d *wire.Dec) *ir.Stmt {
	s := &ir.Stmt{Op: ir.Op(d.U8()), Dest: ir.Reg(d.I32())}
	s.A, s.B = loadOperand(d), loadOperand(d)
	s.Off = d.I64()
	if s.Op == ir.OpCall || s.Op == ir.OpSpawn {
		s.CalleeName = readString(d)
		for n := d.Count(minOperandBytes); n > 0; n-- {
			s.Args = append(s.Args, loadOperand(d))
		}
	}
	return s
}
