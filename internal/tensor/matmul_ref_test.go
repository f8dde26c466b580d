package tensor

// Test-only reference: MatMul as it stood before its row update moved to
// axpy, kept verbatim (only renamed) but for the float32(...) around each
// product. That conversion rounds the product, as amd64 always did, and
// keeps an architecture that fuses multiply-adds from fusing the oracle.

import "fmt"

// refMatMul computes C = A(M,K) x B(K,N). transA/transB interpret A as (K,M)
// or B as (N,K) respectively, matching BLAS conventions.
func refMatMul(a, b *Tensor, transA, transB bool) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: matmul wants 2-D, got %v x %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmul inner dims %d != %d", k, k2)
	}
	c := New(m, n)
	lda, ldb := a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			var av float32
			if transA {
				av = a.Data[kk*lda+i]
			} else {
				av = a.Data[i*lda+kk]
			}
			if av == 0 {
				continue
			}
			row := c.Data[i*n : (i+1)*n]
			if !transB {
				brow := b.Data[kk*n : (kk+1)*n]
				for j := range row {
					row[j] += float32(av * brow[j])
				}
			} else {
				for j := range row {
					row[j] += float32(av * b.Data[j*ldb+kk])
				}
			}
		}
	}
	return c, nil
}
