package stats

import (
	"math"
	"math/rand"
	"testing"
)

func mixedSample(r *rand.Rand, n int) MixedData {
	d := MixedData{
		QuantNames: []string{"gips", "ii"},
		QualNames:  []string{"side"},
	}
	for i := 0; i < n; i++ {
		side := "mem"
		base := 1.0
		if i%2 == 0 {
			side, base = "cmp", 10.0
		}
		d.Quant = append(d.Quant, []float64{base + r.NormFloat64()*0.3, base*2 + r.NormFloat64()*0.3})
		d.Qual = append(d.Qual, []string{side})
	}
	return d
}

func TestFAMDSeparatesGroups(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := mixedSample(r, 40)
	res, err := FAMD(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coords) != 40 || len(res.Coords[0]) != 2 {
		t.Fatalf("coords shape %dx%d", len(res.Coords), len(res.Coords[0]))
	}
	// Dimension 1 must separate the two groups: means well apart.
	var m0, m1 float64
	for i, c := range res.Coords {
		if i%2 == 0 {
			m0 += c[0]
		} else {
			m1 += c[0]
		}
	}
	m0 /= 20
	m1 /= 20
	if math.Abs(m0-m1) < 1 {
		t.Errorf("FAMD dim1 group means %g vs %g: no separation", m0, m1)
	}
	// First dimension should explain the bulk of variance.
	if res.ExplainedVariance[0] < 0.5 {
		t.Errorf("dim1 variance = %g", res.ExplainedVariance[0])
	}
	// Expanded columns: 2 quant + 2 one-hot levels.
	if len(res.ColumnNames) != 4 {
		t.Errorf("column names = %v", res.ColumnNames)
	}
}

func TestFAMDValidation(t *testing.T) {
	if _, err := FAMD(MixedData{}, 2); err == nil {
		t.Error("empty data should fail")
	}
	bad := MixedData{QuantNames: []string{"a"}, Quant: [][]float64{{1, 2}}}
	if _, err := FAMD(bad, 1); err == nil {
		t.Error("ragged quant should fail")
	}
	bad2 := MixedData{QualNames: []string{"a"}, Qual: [][]string{{"x", "y"}}}
	if _, err := FAMD(bad2, 1); err == nil {
		t.Error("ragged qual should fail")
	}
}

func TestFAMDConstantQualColumn(t *testing.T) {
	d := MixedData{
		QuantNames: []string{"v"},
		Quant:      [][]float64{{1}, {2}, {3}},
		QualNames:  []string{"c"},
		Qual:       [][]string{{"same"}, {"same"}, {"same"}},
	}
	res, err := FAMD(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The constant qualitative column contributes nothing.
	if len(res.ColumnNames) != 1 {
		t.Errorf("columns = %v", res.ColumnNames)
	}
}

func TestFAMDCumulativeVariance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	res, err := FAMD(mixedSample(r, 30), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cv := res.CumulativeVariance(len(res.ExplainedVariance)); cv < 0.99 || cv > 1.01 {
		t.Errorf("full cumulative variance = %g, want ~1", cv)
	}
	if res.CumulativeVariance(1) > res.CumulativeVariance(2)+1e-12 {
		t.Error("cumulative variance must be nondecreasing")
	}
}

func gaussianBlobs(r *rand.Rand, centers [][]float64, perBlob int, spread float64) ([][]float64, []int) {
	var pts [][]float64
	var truth []int
	for ci, c := range centers {
		for i := 0; i < perBlob; i++ {
			p := make([]float64, len(c))
			for j := range c {
				p[j] = c[j] + r.NormFloat64()*spread
			}
			pts = append(pts, p)
			truth = append(truth, ci)
		}
	}
	return pts, truth
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	pts, truth := gaussianBlobs(r, centers, 15, 0.5)
	d, err := Agglomerative(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := d.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to exactly one cluster id.
	seen := map[int]int{}
	for i, c := range assign {
		if prev, found := seen[truth[i]]; found && prev != c {
			t.Errorf("point %d splits blob %d across clusters %d and %d", i, truth[i], prev, c)
		}
		seen[truth[i]] = c
	}
	if len(clusterSizes(assign)) != 3 {
		t.Errorf("%d clusters, want 3", len(clusterSizes(assign)))
	}
}

func TestDendrogramStructure(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}}
	d, err := Agglomerative(pts, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(d.Merges))
	}
	// First merge joins the close pair at low height.
	if d.Merges[0].Height >= d.Merges[1].Height {
		t.Error("merge heights must increase")
	}
	if d.Merges[1].Size != 3 {
		t.Errorf("final merge size = %d", d.Merges[1].Size)
	}
}

func TestCutEdgeCases(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}}
	d, err := Agglomerative(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := d.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range one {
		if c != 0 {
			t.Error("k=1 should place everything in cluster 0")
		}
	}
	all, err := d.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusterSizes(all)) != 4 {
		t.Error("k=n should be singletons")
	}
	if _, err := d.Cut(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := d.Cut(5); err == nil {
		t.Error("k>n should fail")
	}
}

func TestAgglomerativeErrors(t *testing.T) {
	if _, err := Agglomerative(nil, nil); err == nil {
		t.Error("empty points")
	}
	if _, err := Agglomerative([][]float64{{1}, {1, 2}}, nil); err == nil {
		t.Error("ragged points")
	}
	if _, err := Agglomerative([][]float64{{1}}, []string{"a", "b"}); err == nil {
		t.Error("label count mismatch")
	}
}

func TestSilhouetteScore(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, truth := gaussianBlobs(r, [][]float64{{0, 0}, {20, 20}}, 20, 0.5)
	good, err := SilhouetteScore(pts, truth)
	if err != nil {
		t.Fatal(err)
	}
	if good < 0.8 {
		t.Errorf("well-separated blobs silhouette = %g, want > 0.8", good)
	}
	// Random assignment should score far worse.
	bad := make([]int, len(truth))
	for i := range bad {
		bad[i] = r.Intn(2)
	}
	worse, err := SilhouetteScore(pts, bad)
	if err != nil {
		t.Fatal(err)
	}
	if worse >= good {
		t.Errorf("random assignment silhouette %g >= truth %g", worse, good)
	}
	if _, err := SilhouetteScore(pts, truth[:3]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := SilhouetteScore(pts, make([]int, len(pts))); err == nil {
		t.Error("single cluster should fail")
	}
}

func TestSingleLeafDendrogram(t *testing.T) {
	d, err := Agglomerative([][]float64{{1, 2}}, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 0 {
		t.Error("single leaf has no merges")
	}
	assign, err := d.Cut(1)
	if err != nil || len(assign) != 1 {
		t.Errorf("cut single: %v %v", assign, err)
	}
}

// clusterSizes returns the size of each cluster in an assignment, sorted by
// cluster id.
func clusterSizes(assign []int) []int {
	counts := make(map[int]int)
	maxID := -1
	for _, c := range assign {
		counts[c]++
		if c > maxID {
			maxID = c
		}
	}
	out := make([]int, maxID+1)
	for c, n := range counts {
		out[c] = n
	}
	return out
}
