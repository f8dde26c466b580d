package survey

import "testing"

func TestSeriesAlignment(t *testing.T) {
	for _, s := range Suites {
		series, err := Series(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != len(Years) {
			t.Errorf("%s: %d points for %d years", s, len(series), len(Years))
		}
	}
	if _, err := Series("bogus"); err == nil {
		t.Error("unknown suite should fail")
	}
}

func TestTotalUnknownSuite(t *testing.T) {
	if _, err := Total("bogus"); err == nil {
		t.Error("unknown suite total should fail")
	}
}

func TestTotalIsSeriesSum(t *testing.T) {
	for _, s := range Suites {
		series, err := Series(s)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, v := range series {
			sum += v
		}
		total, err := Total(s)
		if err != nil {
			t.Fatal(err)
		}
		if total != sum || total <= 0 {
			t.Errorf("%s: Total = %d, series sum %d", s, total, sum)
		}
	}
}

func TestRankingMatchesPaper(t *testing.T) {
	r := Ranking()
	if r[0] != "Rodinia" {
		t.Errorf("most-used suite = %s, want Rodinia (Fig. 1)", r[0])
	}
	if r[1] != "Parboil" {
		t.Errorf("second suite = %s, want Parboil (Fig. 1)", r[1])
	}
	// Totals strictly ordered.
	prev := 1 << 30
	for _, s := range r {
		tot, err := Total(s)
		if err != nil {
			t.Fatal(err)
		}
		if tot > prev {
			t.Error("ranking not sorted by total")
		}
		prev = tot
	}
}

func TestRodiniaGrowthTrend(t *testing.T) {
	// Usage grows through the decade (the motivation for the survey).
	series, err := Series("Rodinia")
	if err != nil {
		t.Fatal(err)
	}
	early, late := series[2011-Years[0]], series[2019-Years[0]]
	if late <= early {
		t.Errorf("Rodinia usage %d (2011) -> %d (2019): expected growth", early, late)
	}
}
