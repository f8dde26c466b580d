//go:build !amd64

package tensor

// The portable bodies of the kernels in sum_amd64.s. Each product is
// written float32(x*y): the conversion rounds, so no architecture may fuse
// it with the add that follows.

// convSum adds to every lane j of acc the products v[b*vs+t.v][j] *
// s[b*ss+t.s], block by block for b < nb and within a block in term order
// — the order the sum's definition gives its terms.
func convSum(acc *[convTile]float32, terms []convTerm, s []float32, ss int, v [][convTile]float32, vs, nb int) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for so, vo := 0, 0; so < nb*ss; so, vo = so+ss, vo+vs {
		for _, t := range terms {
			sv := s[so+int(t.s)]
			q := &v[vo+int(t.v)]
			a0 += float32(q[0] * sv)
			a1 += float32(q[1] * sv)
			a2 += float32(q[2] * sv)
			a3 += float32(q[3] * sv)
		}
	}
	*acc = [convTile]float32{a0, a1, a2, a3}
}

// convSum2 is convSum for two sums over the same lanes at once: acc's
// scalars at s and acc2's at s[ds:]. Each lane value is loaded once for
// both.
func convSum2(acc, acc2 *[convTile]float32, terms []convTerm, s []float32, ds, ss int, v [][convTile]float32, vs, nb int) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	b0, b1, b2, b3 := acc2[0], acc2[1], acc2[2], acc2[3]
	for so, vo := 0, 0; so < nb*ss; so, vo = so+ss, vo+vs {
		for _, t := range terms {
			i := so + int(t.s)
			q := &v[vo+int(t.v)]
			sa := s[i]
			a0 += float32(q[0] * sa)
			a1 += float32(q[1] * sa)
			sb := s[i+ds]
			b0 += float32(q[0] * sb)
			b1 += float32(q[1] * sb)
			a2 += float32(q[2] * sa)
			a3 += float32(q[3] * sa)
			b2 += float32(q[2] * sb)
			b3 += float32(q[3] * sb)
		}
	}
	*acc = [convTile]float32{a0, a1, a2, a3}
	*acc2 = [convTile]float32{b0, b1, b2, b3}
}

// axpy adds a*src[j] to dst[j] for every j below both lengths.
func axpy(dst, src []float32, a float32) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for j, x := range src {
		dst[j] += float32(a * x)
	}
}
