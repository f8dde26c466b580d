package workloads

import (
	"testing"

	"repro/internal/profiler"
)

type fake struct {
	abbr   string
	suite  Suite
	domain Domain
}

func (f fake) Name() string                { return "fake " + f.abbr }
func (f fake) Abbr() string                { return f.abbr }
func (f fake) Suite() Suite                { return f.suite }
func (f fake) Domain() Domain              { return f.domain }
func (f fake) Run(*profiler.Session) error { return nil }

func TestCatalogOrderAndLookup(t *testing.T) {
	c, err := NewCatalog(
		fake{"A", Cactus, Molecular},
		fake{"B", Parboil, Scientific},
		fake{"C", Cactus, Graph},
	)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.All()); n != 3 {
		t.Fatalf("len = %d", n)
	}
	all := c.All()
	if all[0].Abbr() != "A" || all[2].Abbr() != "C" {
		t.Error("insertion order not preserved")
	}
	// Returned slice is a copy.
	all[0] = fake{"Z", Tango, MachineL}
	if c.All()[0].Abbr() != "A" {
		t.Error("All() must return a copy")
	}
	w, err := c.Lookup("B")
	if err != nil || w.Abbr() != "B" {
		t.Errorf("lookup: %v", err)
	}
	if _, err := c.Lookup("missing"); err == nil {
		t.Error("missing lookup should fail")
	}
	if got := c.BySuite(Cactus); len(got) != 2 {
		t.Errorf("BySuite = %d", len(got))
	}
}

func TestCatalogRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewCatalog(fake{"A", Cactus, Molecular}, fake{"A", Parboil, Scientific}); err == nil {
		t.Error("duplicate abbr should fail")
	}
	if _, err := NewCatalog(fake{"", Cactus, Molecular}); err == nil {
		t.Error("empty abbr should fail")
	}
	c, err := NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(fake{"X", Tango, MachineL}); err != nil {
		t.Fatal(err)
	}
	if len(c.All()) != 1 {
		t.Error("Add")
	}
}
