package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	if FP32.String() != "fp32" {
		t.Errorf("FP32 = %q", FP32.String())
	}
	if LoadGlobal.String() != "ldg" {
		t.Errorf("LoadGlobal = %q", LoadGlobal.String())
	}
	if Class(200).String() == "" {
		t.Error("out-of-range class should still render")
	}
}

// TestClassNamesDistinct checks that every defined class has its own
// mnemonic, since reports key instruction mixes by name.
func TestClassNamesDistinct(t *testing.T) {
	seen := map[string]Class{}
	for _, c := range Classes() {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "class(") {
			t.Errorf("class %d has no mnemonic: %q", uint8(c), name)
		}
		if prev, ok := seen[name]; ok {
			t.Errorf("classes %d and %d share the name %q", uint8(prev), uint8(c), name)
		}
		seen[name] = c
	}
	if len(seen) != NumClasses {
		t.Errorf("%d names for %d classes", len(seen), NumClasses)
	}
}

func TestClassPredicates(t *testing.T) {
	tests := []struct {
		c        Class
		mem, cmp bool
	}{
		{FP32, false, true},
		{FP64, false, true},
		{INT, false, true},
		{SFU, false, true},
		{Tensor, false, true},
		{LoadGlobal, true, false},
		{StoreGlobal, true, false},
		{LoadShared, true, false},
		{StoreShared, true, false},
		{LoadConst, true, false},
		{Branch, false, false},
		{Sync, false, false},
		{Misc, false, false},
	}
	for _, tt := range tests {
		if got := tt.c.IsMemory(); got != tt.mem {
			t.Errorf("%v.IsMemory() = %v, want %v", tt.c, got, tt.mem)
		}
		if got := tt.c.IsCompute(); got != tt.cmp {
			t.Errorf("%v.IsCompute() = %v, want %v", tt.c, got, tt.cmp)
		}
	}
}

func TestMixAddAndTotals(t *testing.T) {
	var m Mix
	m.Add(FP32, 100)
	m.Add(LoadGlobal, 30)
	m.Add(StoreGlobal, 10)
	m.Add(Branch, 5)
	m.Add(LoadShared, 15)
	if got := m.Total(); got != 160 {
		t.Errorf("Total = %d, want 160", got)
	}
	if got := m.GlobalOps(); got != 40 {
		t.Errorf("GlobalOps = %d, want 40", got)
	}
	if got := m.MemoryOps(); got != 55 {
		t.Errorf("MemoryOps = %d, want 55", got)
	}
	if got := m.BranchFraction(); got != 5.0/160 {
		t.Errorf("BranchFraction = %g", got)
	}
	if got := m.MemoryFraction(); got != 55.0/160 {
		t.Errorf("MemoryFraction = %g", got)
	}
}

func TestMixAddInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with invalid class should panic")
		}
	}()
	var m Mix
	m.Add(Class(99), 1)
}

func TestMixScale(t *testing.T) {
	var m Mix
	m.Add(FP32, 10)
	m.Add(INT, 3)
	s := m.Scale(2.5)
	if s.Count(FP32) != 25 {
		t.Errorf("scaled FP32 = %d, want 25", s.Count(FP32))
	}
	if s.Count(INT) != 8 { // 7.5 rounds to 8
		t.Errorf("scaled INT = %d, want 8", s.Count(INT))
	}
}

func TestMixAddMixCommutative(t *testing.T) {
	f := func(a, b [NumClasses]uint16) bool {
		var ma, mb Mix
		for i := range a {
			ma[i] = uint64(a[i])
			mb[i] = uint64(b[i])
		}
		x, y := ma, mb
		x.AddMix(mb)
		y.AddMix(ma)
		return x == y && x.Total() == ma.Total()+mb.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixFractionsSumToOne(t *testing.T) {
	f := func(a [NumClasses]uint16) bool {
		var m Mix
		for i := range a {
			m[i] = uint64(a[i])
		}
		if m.Total() == 0 {
			return m.Fraction(FP32) == 0
		}
		var sum float64
		for _, c := range Classes() {
			sum += m.Fraction(c)
		}
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixStringOrdersByCount(t *testing.T) {
	var m Mix
	m.Add(FP32, 5)
	m.Add(LoadGlobal, 50)
	s := m.String()
	if s != "ldg:50 fp32:5" {
		t.Errorf("String = %q", s)
	}
	var empty Mix
	if empty.String() != "" {
		t.Errorf("empty mix String = %q", empty.String())
	}
}

func TestEmptyMixFractions(t *testing.T) {
	var m Mix
	if m.MemoryFraction() != 0 || m.BranchFraction() != 0 {
		t.Error("empty mix fractions should be 0")
	}
	if m.Count(Class(99)) != 0 {
		t.Error("invalid class count should be 0")
	}
}
