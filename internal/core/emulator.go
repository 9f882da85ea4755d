package core

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// Emulator executes a scheduled Program on real field elements, pair by
// pair, exactly as the datapath would: extension engines extend each
// distinct MLE of a step to K points, product lanes multiply the slot
// operands (and Tmp for continuation nodes), and final nodes accumulate into
// the round registers. It exists to co-verify the scheduler: tests assert
// its round polynomials match the software SumCheck prover bit for bit.
type Emulator struct {
	Prog   *Program
	Tables []*mle.Table
	// Stats accumulated across rounds.
	PairsProcessed uint64
	LaneMuls       uint64
	UpdateMuls     uint64
	round          int
}

// NewEmulator binds a program to (cloned) constituent tables.
func NewEmulator(p *Program, tables []*mle.Table) (*Emulator, error) {
	if len(tables) != p.Composite.NumVars() {
		return nil, fmt.Errorf("core: %d tables for %d constituents", len(tables), p.Composite.NumVars())
	}
	cl := make([]*mle.Table, len(tables))
	for i, t := range tables {
		if t.NumVars != tables[0].NumVars {
			return nil, fmt.Errorf("core: table size mismatch")
		}
		cl[i] = t.Clone()
	}
	return &Emulator{Prog: p, Tables: cl}, nil
}

// Round computes the current round's evaluations s(0..K-1) by executing the
// schedule for every evaluation pair.
func (e *Emulator) Round() []ff.Element {
	k := e.Prog.K
	half := e.Tables[0].Size() / 2
	nv := len(e.Tables)
	comp := e.Prog.Composite

	acc := make([]ff.Element, k)
	ext := make([][]ff.Element, nv)
	extValid := make([]bool, nv)
	for v := range ext {
		ext[v] = make([]ff.Element, k)
	}
	numTmp := e.Prog.TmpBuffers
	if numTmp < 1 {
		numTmp = 1
	}
	tmp := make([][]ff.Element, numTmp)
	for i := range tmp {
		tmp[i] = make([]ff.Element, k)
	}
	prod := make([]ff.Element, k)
	var diff ff.Element

	extend := func(v int, j int) {
		if extValid[v] {
			return
		}
		evals := e.Tables[v].Evals
		a0 := evals[2*j]
		diff.Sub(&evals[2*j+1], &a0)
		ext[v][0] = a0
		for t := 1; t < k; t++ {
			ext[v][t].Add(&ext[v][t-1], &diff)
		}
		extValid[v] = true
	}

	var exec func(st *Step, j int)
	exec = func(st *Step, j int) {
		// Extension engines: extend each distinct slot MLE once.
		for _, v := range st.Slots {
			extend(v, j)
		}
		// Product lanes: multiply slot extensions and consumed Tmp buffers.
		for t := 0; t < k; t++ {
			prod[t] = ff.One()
			for _, b := range st.TmpIn {
				prod[t].Mul(&prod[t], &tmp[b][t])
				e.LaneMuls++
			}
			for _, v := range st.Slots {
				prod[t].Mul(&prod[t], &ext[v][t])
				e.LaneMuls++
			}
		}
		if st.WritesTmp() {
			copy(tmp[st.TmpOut], prod)
		} else {
			// Final node: scale by the term coefficient and accumulate.
			coeff := comp.Terms[st.Term].Coeff
			for t := 0; t < k; t++ {
				var scaled ff.Element
				scaled.Mul(&prod[t], &coeff)
				acc[t].Add(&acc[t], &scaled)
			}
		}
		for i := range st.Packed {
			exec(&st.Packed[i], j)
		}
	}

	for j := 0; j < half; j++ {
		for v := range extValid {
			extValid[v] = false
		}
		for si := range e.Prog.Steps {
			exec(&e.Prog.Steps[si], j)
		}
		e.PairsProcessed++
	}
	return acc
}

// Fold applies the MLE update with challenge r to every table (the fused
// update path of Fig. 3) and advances to the next round.
func (e *Emulator) Fold(r *ff.Element) {
	for _, t := range e.Tables {
		e.UpdateMuls += uint64(t.Size() / 2)
		t.Fold(r)
	}
	e.round++
}

// FinalEvals returns each constituent's fully folded value (valid once
// every round has folded the tables down to zero variables).
func (e *Emulator) FinalEvals() []ff.Element {
	out := make([]ff.Element, len(e.Tables))
	for i, t := range e.Tables {
		out[i] = t.Evals[0]
	}
	return out
}
