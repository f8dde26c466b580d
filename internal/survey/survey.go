// Package survey reproduces Figure 1: the popularity of GPU-compute
// benchmark suites in GPU-related papers at the top-four architecture
// conferences (ISCA, MICRO, ASPLOS, HPCA) from 2010 through 2020. The
// figure is a literature-survey artifact, not a system measurement, so the
// per-year usage counts are an embedded dataset reconstructed to match the
// figure's reported shape: Rodinia is the most used suite, followed by
// Parboil, with CUDA-SDK, LoneStar, PolyBench and SHOC behind (see
// DESIGN.md, substitutions).
package survey

import (
	"fmt"
	"sort"
)

// Years spans the survey period.
var Years = []int{2010, 2011, 2012, 2013, 2014, 2015, 2016, 2017, 2018, 2019, 2020}

// Suites lists the surveyed benchmark suites in overall-popularity order.
var Suites = []string{"Rodinia", "Parboil", "CUDA-SDK", "LoneStar", "PolyBench", "SHOC"}

// usage[suite][yearIndex] = number of papers using the suite that year.
var usage = map[string][]int{
	"Rodinia":   {1, 3, 5, 8, 11, 13, 15, 16, 17, 18, 16},
	"Parboil":   {1, 2, 4, 6, 8, 9, 10, 9, 8, 7, 6},
	"CUDA-SDK":  {2, 3, 4, 5, 5, 6, 5, 5, 4, 4, 3},
	"LoneStar":  {0, 1, 1, 2, 3, 4, 4, 5, 4, 4, 3},
	"PolyBench": {0, 0, 1, 2, 3, 3, 4, 4, 4, 3, 3},
	"SHOC":      {1, 1, 2, 3, 3, 3, 3, 2, 2, 2, 1},
}

// Total returns a suite's total usage count over the survey period.
func Total(suite string) (int, error) {
	row, ok := usage[suite]
	if !ok {
		return 0, fmt.Errorf("survey: unknown suite %q", suite)
	}
	t := 0
	for _, v := range row {
		t += v
	}
	return t, nil
}

// Ranking returns the suites ordered by total usage, most used first.
func Ranking() []string {
	out := append([]string(nil), Suites...)
	sort.SliceStable(out, func(i, j int) bool {
		ti, _ := Total(out[i])
		tj, _ := Total(out[j])
		return ti > tj
	})
	return out
}

// Series returns a suite's full per-year series (aligned with Years).
func Series(suite string) ([]int, error) {
	row, ok := usage[suite]
	if !ok {
		return nil, fmt.Errorf("survey: unknown suite %q", suite)
	}
	return append([]int(nil), row...), nil
}
