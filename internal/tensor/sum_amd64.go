package tensor

// The packed-SSE kernels of sum_amd64.s (see the package doc). Their Go
// bodies, which every other architecture runs, are in sum_other.go.

// convSum adds to every lane j of acc the products v[b*vs+t.v][j] *
// s[b*ss+t.s], block by block for b < nb and within a block in term order.
//
//go:noescape
func convSum(acc *[convTile]float32, terms []convTerm, s []float32, ss int, v [][convTile]float32, vs, nb int)

// convSum2 is convSum for two sums over the same lanes at once: acc's
// scalars at s and acc2's at s[ds:]. Each lane value is loaded once for
// both.
//
//go:noescape
func convSum2(acc, acc2 *[convTile]float32, terms []convTerm, s []float32, ds, ss int, v [][convTile]float32, vs, nb int)

// axpy adds a*src[j] to dst[j] for every j below both lengths.
//
//go:noescape
func axpy(dst, src []float32, a float32)
