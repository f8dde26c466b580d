// Package isa defines the warp-level instruction classes used by the GPU
// performance model. The model operates at warp granularity, mirroring the
// paper's methodology: one warp instruction corresponds to 32 thread
// instructions, and all instruction counts reported anywhere in this
// repository are warp-instruction counts.
//
// Classes follow the functional-unit split of an Ampere-style streaming
// multiprocessor: FP32/FP64 pipes, the integer/ALU pipe, the special-function
// unit, tensor cores, load/store units (global, shared, local/constant),
// control flow, barriers, and a catch-all for move/predicate bookkeeping.
package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Class identifies the functional-unit class of a warp instruction.
type Class uint8

// Instruction classes. The order is stable and part of the package API:
// serialized mixes index by the class value.
const (
	// FP32 covers single-precision arithmetic: FADD, FMUL, FFMA.
	FP32 Class = iota
	// FP64 covers double-precision arithmetic.
	FP64
	// INT covers integer ALU work: IADD, IMAD, ISETP, LOP3, SHF.
	INT
	// SFU covers special-function-unit ops: MUFU (rcp, rsqrt, sin, exp, lg2).
	SFU
	// Tensor covers tensor-core matrix ops (HMMA/IMMA). Unused by the FP32
	// workloads in this repository but part of the device model.
	Tensor
	// LoadGlobal covers LDG: loads from global memory.
	LoadGlobal
	// StoreGlobal covers STG: stores to global memory.
	StoreGlobal
	// LoadShared covers LDS: loads from shared memory.
	LoadShared
	// StoreShared covers STS: stores to shared memory.
	StoreShared
	// LoadConst covers LDC and constant-bank reads.
	LoadConst
	// Branch covers BRA/BRX/JMP and predicated divergence points.
	Branch
	// Sync covers BAR.SYNC and named-barrier instructions.
	Sync
	// Misc covers MOV, PRMT, SEL, predicate manipulation, NOP, EXIT.
	Misc

	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	"fp32", "fp64", "int", "sfu", "tensor",
	"ldg", "stg", "lds", "sts", "ldc",
	"branch", "sync", "misc",
}

// String returns the short mnemonic for the class.
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Valid reports whether c is a defined instruction class.
func (c Class) Valid() bool { return int(c) < NumClasses }

// IsMemory reports whether the class executes on a load/store unit.
func (c Class) IsMemory() bool {
	switch c {
	case LoadGlobal, StoreGlobal, LoadShared, StoreShared, LoadConst:
		return true
	}
	return false
}

// IsCompute reports whether the class executes on an arithmetic pipe.
func (c Class) IsCompute() bool {
	switch c {
	case FP32, FP64, INT, SFU, Tensor:
		return true
	}
	return false
}

// Classes returns all defined classes in declaration order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Mix is a per-class warp-instruction histogram. The zero value is an empty
// mix ready to use.
type Mix [NumClasses]uint64

// Add increments class c by n warp instructions.
func (m *Mix) Add(c Class, n uint64) {
	if !c.Valid() {
		panic(fmt.Sprintf("isa: invalid class %d", c))
	}
	m[c] += n
}

// Warps converts a thread-instruction estimate into warp instructions: one
// per 32 thread instructions, rounded down, and at least 1.
func Warps(threadInsts float64) uint64 {
	return uint64(max(threadInsts/32, 1))
}

// AddMix accumulates another mix into m.
func (m *Mix) AddMix(o Mix) {
	for i := range m {
		m[i] += o[i]
	}
}

// Scale returns a copy of m with every count multiplied by f and rounded to
// the nearest integer. Useful when a sampled warp subset stands in for the
// whole grid.
func (m Mix) Scale(f float64) Mix {
	var out Mix
	for i, v := range m {
		out[i] = uint64(float64(v)*f + 0.5)
	}
	return out
}

// Total returns the total number of warp instructions across all classes.
func (m Mix) Total() uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// Count returns the number of warp instructions in class c.
func (m Mix) Count(c Class) uint64 {
	if !c.Valid() {
		return 0
	}
	return m[c]
}

// MemoryOps returns the number of load/store-unit warp instructions.
func (m Mix) MemoryOps() uint64 {
	var t uint64
	for i, v := range m {
		if Class(i).IsMemory() {
			t += v
		}
	}
	return t
}

// GlobalOps returns the number of global-memory warp instructions.
func (m Mix) GlobalOps() uint64 {
	return m[LoadGlobal] + m[StoreGlobal]
}

// Fraction returns class c's share of the total, or 0 for an empty mix.
func (m Mix) Fraction(c Class) float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Count(c)) / float64(t)
}

// BranchFraction returns the fraction of branch instructions (Table IV,
// "Fraction branches").
func (m Mix) BranchFraction() float64 { return m.Fraction(Branch) }

// MemoryFraction returns the fraction of load/store instructions (Table IV,
// "Fraction LD/ST insts").
func (m Mix) MemoryFraction() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.MemoryOps()) / float64(t)
}

// String renders the non-zero classes as "class:count" pairs, largest first.
func (m Mix) String() string {
	type kv struct {
		c Class
		n uint64
	}
	var items []kv
	for i, v := range m {
		if v > 0 {
			items = append(items, kv{Class(i), v})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].c < items[j].c
	})
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", it.c, it.n)
	}
	return b.String()
}
