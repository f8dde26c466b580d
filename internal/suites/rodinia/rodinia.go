// Package rodinia implements the Rodinia subset of Table III: b+tree,
// backprop, bfs, cfd, dwt2d, gaussian (4K), heartwall, hotspot3d, huffman,
// kmeans, lavamd, leukocyte, lud, nn, nw, pathfinder, srad_v1,
// streamcluster. Each benchmark performs its reduced computation for real
// and launches its characteristic kernels with derived counts.
package rodinia

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/suites"
	"repro/internal/workloads"
)

// All returns the Rodinia benchmarks in Table III order.
func All() []workloads.Workload {
	bs := []*suites.Bench{
		bplustree(), backprop(), bfs(), cfd(), dwt2d(), gaussian(),
		heartwall(), hotspot3d(), huffman(), kmeans(), lavamd(),
		leukocyte(), lud(), nearestNeighbor(), nw(), pathfinder(),
		sradV1(), streamcluster(),
	}
	out := make([]workloads.Workload, len(bs))
	for i, b := range bs {
		out[i] = b
	}
	return out
}

func bench(name, abbr string, repl float64, body func(e *suites.Emitter) error) *suites.Bench {
	return &suites.Bench{
		BenchName: name, BenchAbbr: abbr,
		BenchSuite: workloads.Rodinia, BenchDomain: workloads.Scientific,
		Replication: repl, Body: body,
	}
}

// bplustree: bulk B+-tree point and range queries (findK, findRangeK).
// Paper classification: compute-intensive kernels in one cluster.
func bplustree() *suites.Bench {
	return bench("Rodinia B+Tree", "rd-b+tree", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(21))
		const n, queries = 1 << 14, 4096
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(1 << 20)
		}
		sort.Ints(keys)
		found := 0
		for q := 0; q < queries; q++ {
			target := r.Intn(1 << 20)
			i := sort.SearchInts(keys, target)
			if i < n && keys[i] == target {
				found++
			}
		}
		depth := math.Log2(float64(n)) / math.Log2(256) * 2 // ~tree levels
		work := float64(queries) * (depth + 1) * 256        // keys scanned per level node
		var m suites.Mix
		m.Add(isa.INT, work*3).
			Add(isa.LoadGlobal, work/4).
			Add(isa.LoadShared, work).
			Add(isa.Branch, work/2).
			Add(isa.StoreGlobal, queries)
		e.Launch("findK", queries, &m, []suites.Stream{
			suites.Gather(gpu.FixedPrefix+"knodes", uint64(n*8), uint64(work/8)),
			suites.Write("ans", queries*4),
		}, 0.2)
		var m2 suites.Mix
		m2.Add(isa.INT, work*4).
			Add(isa.LoadGlobal, work/3).
			Add(isa.LoadShared, work).
			Add(isa.Branch, work/2).
			Add(isa.StoreGlobal, queries*2)
		e.Launch("findRangeK", queries, &m2, []suites.Stream{
			suites.Gather(gpu.FixedPrefix+"knodes", uint64(n*8), uint64(work/8)),
			suites.Write("recstart", queries*8),
		}, 0.2)
		_ = found
		return nil
	})
}

// backprop: a two-layer perceptron forward + weight adjustment.
func backprop() *suites.Bench {
	return bench("Rodinia Backprop", "rd-backprop", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(22))
		const in, hid = 4096, 16
		w := make([]float64, in*hid)
		x := make([]float64, in)
		for i := range w {
			w[i] = r.NormFloat64() * 0.01
		}
		for i := range x {
			x[i] = r.Float64()
		}
		h := make([]float64, hid)
		for j := 0; j < hid; j++ {
			for i := 0; i < in; i++ {
				h[j] += x[i] * w[i*hid+j]
			}
			h[j] = 1 / (1 + math.Exp(-h[j]))
		}
		work := float64(in * hid)
		var m suites.Mix
		m.Add(isa.FP32, work*2).Add(isa.SFU, hid).
			Add(isa.INT, work/2).
			Add(isa.LoadGlobal, work).
			Add(isa.LoadShared, work).
			Add(isa.Sync, in/16).
			Add(isa.StoreGlobal, hid)
		e.Launch("bpnn_layerforward_CUDA", in, &m, []suites.Stream{
			suites.Read("input", in*4, 1),
			suites.Read("weights", uint64(in*hid*4), 1),
			suites.Write("hidden", hid*4),
		}, 0)
		var m2 suites.Mix
		m2.Add(isa.FP32, work*3).
			Add(isa.INT, work/2).
			Add(isa.LoadGlobal, work*2).
			Add(isa.StoreGlobal, work)
		e.Launch("bpnn_adjust_weights_cuda", in, &m2, []suites.Stream{
			suites.Read("delta", uint64(in*hid*4), 1),
			suites.Read("w_in", uint64(in*hid*4), 1),
			suites.Write("w_out", uint64(in*hid*4)),
		}, 0)
		return nil
	})
}

// bfs: the Rodinia two-kernel level-sync BFS (Kernel, Kernel2).
func bfs() *suites.Bench {
	return bench("Rodinia BFS", "rd-bfs", 24, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(23))
		n := 1 << 14
		deg := 6
		adj := make([][]int32, n)
		for v := range adj {
			for k := 0; k < deg; k++ {
				adj[v] = append(adj[v], int32(r.Intn(n)))
			}
		}
		visited := make([]bool, n)
		visited[0] = true
		frontier := []int32{0}
		for len(frontier) > 0 {
			var next []int32
			edges := 0
			for _, u := range frontier {
				for _, v := range adj[u] {
					edges++
					if !visited[v] {
						visited[v] = true
						next = append(next, v)
					}
				}
			}
			// Rodinia's formulation runs both kernels over ALL n vertices
			// each level, masking inactive ones — the inefficiency newer
			// libraries fix.
			var m suites.Mix
			m.Add(isa.INT, float64(n*2+edges*5)).
				Add(isa.LoadGlobal, float64(n+edges*2)).
				Add(isa.StoreGlobal, float64(len(next)+1)).
				Add(isa.Branch, float64(n+edges))
			e.Launch("Kernel", n, &m, []suites.Stream{
				suites.Read("g_graph_mask", uint64(n), 1),
				suites.Gather("g_graph_nodes", uint64(n*8), uint64(edges*8)),
				suites.Scatter("g_cost", uint64(n*4), uint64(edges*4)),
			}, 0.45)
			var m2 suites.Mix
			m2.Add(isa.INT, float64(n*3)).
				Add(isa.LoadGlobal, float64(n)).
				Add(isa.StoreGlobal, float64(n/8)).
				Add(isa.Branch, float64(n))
			e.Launch("Kernel2", n, &m2, []suites.Stream{
				suites.Read("g_updating_mask", uint64(n), 1),
				suites.Write("g_graph_mask_out", uint64(n)),
			}, 0.3)
			frontier = next
		}
		return nil
	})
}

// cfd: the euler3d unstructured-mesh flux solver.
func cfd() *suites.Bench {
	return bench("Rodinia CFD (euler3d)", "rd-cfd", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(24))
		const cells, nbrs = 1 << 13, 4
		density := make([]float64, cells)
		for i := range density {
			density[i] = 1 + 0.1*r.NormFloat64()
		}
		neighbors := make([]int32, cells*nbrs)
		for i := range neighbors {
			neighbors[i] = int32(r.Intn(cells))
		}
		for iter := 0; iter < 3; iter++ {
			var sf suites.Mix
			sf.Add(isa.FP32, cells*8).Add(isa.SFU, cells).
				Add(isa.LoadGlobal, cells*5).Add(isa.StoreGlobal, cells)
			e.Launch("compute_step_factor", cells, &sf, []suites.Stream{
				suites.Read("variables", cells*20, 1),
				suites.Write("step_factors", cells*4),
			}, 0)
			// Flux: gather neighbor states.
			flux := 0.0
			for c := 0; c < cells; c++ {
				for k := 0; k < nbrs; k++ {
					flux += density[neighbors[c*nbrs+k]] - density[c]
				}
			}
			_ = flux
			work := float64(cells * nbrs)
			var fm suites.Mix
			fm.Add(isa.FP32, work*30).Add(isa.SFU, work*2).
				Add(isa.INT, work*4).
				Add(isa.LoadGlobal, work*6).
				Add(isa.StoreGlobal, cells*5).
				Add(isa.Branch, work)
			e.Launch("compute_flux", cells, &fm, []suites.Stream{
				suites.Gather("variables", cells*20, uint64(work*20)),
				suites.Read("normals", uint64(work*12), 1),
				suites.Write("fluxes", cells*20),
			}, 0.15)
			var ts suites.Mix
			ts.Add(isa.FP32, cells*6).
				Add(isa.LoadGlobal, cells*3).Add(isa.StoreGlobal, cells*2)
			e.Launch("time_step", cells, &ts, []suites.Stream{
				suites.Read("fluxes", cells*20, 1),
				suites.Write("variables", cells*20),
			}, 0)
		}
		return nil
	})
}

// dwt2d: a 2-D Haar discrete wavelet transform.
func dwt2d() *suites.Bench {
	return bench("Rodinia DWT2D", "rd-dwt2d", 40, func(e *suites.Emitter) error {
		const n = 128
		img := make([]float64, n*n)
		for i := range img {
			img[i] = float64(i % 251)
		}
		// One Haar level: rows then columns.
		tmp := make([]float64, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n/2; x++ {
				a, b := img[y*n+2*x], img[y*n+2*x+1]
				tmp[y*n+x] = (a + b) / 2
				tmp[y*n+n/2+x] = (a - b) / 2
			}
		}
		work := float64(n * n)
		var m suites.Mix
		m.Add(isa.FP32, work*3).Add(isa.INT, work*2).
			Add(isa.LoadGlobal, work).Add(isa.StoreGlobal, work).
			Add(isa.LoadShared, work*2).Add(isa.Sync, work/64)
		e.Launch("fdwt53Kernel", n*n, &m, []suites.Stream{
			suites.Read("in", uint64(n*n*4), 1),
			suites.Write("out", uint64(n*n*4)),
		}, 0.05)
		var m2 suites.Mix
		m2.Add(isa.INT, work*2).
			Add(isa.LoadGlobal, work).Add(isa.StoreGlobal, work)
		e.Launch("c_CopySrcToComponents", n*n, &m2, []suites.Stream{
			suites.Read("src", uint64(n*n*4), 1),
			suites.Write("components", uint64(n*n*4)),
		}, 0)
		return nil
	})
}

// gaussian: Gaussian elimination (Fan1/Fan2) on a 4K-extrapolated matrix.
func gaussian() *suites.Bench {
	return bench("Rodinia Gaussian (4K)", "rd-gaussian", 64, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(25))
		const n = 96
		a := make([]float64, n*n)
		for i := range a {
			a[i] = r.Float64() + 0.1
		}
		for k := 0; k < n-1; k++ {
			var f1 suites.Mix
			rows := float64(n - k - 1)
			f1.Add(isa.FP32, rows*2).Add(isa.INT, rows*2).
				Add(isa.LoadGlobal, rows*2).Add(isa.StoreGlobal, rows)
			e.Launch("Fan1", n-k-1, &f1, []suites.Stream{
				suites.Read("a_col", uint64((n-k)*4), 1),
				suites.Write("m_col", uint64((n-k)*4)),
			}, 0)
			elems := rows * float64(n-k)
			for i := k + 1; i < n; i++ {
				f := a[i*n+k] / a[k*n+k]
				for j := k; j < n; j++ {
					a[i*n+j] -= f * a[k*n+j]
				}
			}
			var f2 suites.Mix
			f2.Add(isa.FP32, elems*2).Add(isa.INT, elems*2).
				Add(isa.LoadGlobal, elems*2).Add(isa.StoreGlobal, elems)
			e.Launch("Fan2", int(elems), &f2, []suites.Stream{
				suites.Read("m", uint64(elems*4), 1),
				suites.Read("a_in", uint64(elems*4), 1),
				suites.Write("a_out", uint64(elems*4)),
			}, 0.05)
		}
		return nil
	})
}

// heartwall: ultrasound-image tracking via template correlation.
func heartwall() *suites.Bench {
	return bench("Rodinia Heartwall", "rd-heartwall", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(26))
		const points, tmplSize = 50, 25 * 25
		img := make([]float64, 128*128)
		for i := range img {
			img[i] = r.Float64()
		}
		var corr float64
		for p := 0; p < points; p++ {
			for t := 0; t < tmplSize; t++ {
				corr += img[(p*37+t)%len(img)] * 0.5
			}
		}
		_ = corr
		work := float64(points * tmplSize * 49) // 7x7 search window
		var m suites.Mix
		m.Add(isa.FP32, work*3).Add(isa.SFU, work/32).
			Add(isa.INT, work).
			Add(isa.LoadGlobal, work/2).
			Add(isa.LoadShared, work).
			Add(isa.Sync, float64(points*16)).
			Add(isa.StoreGlobal, points*4)
		e.Launch("heartwall_kernel", points*512, &m, []suites.Stream{
			suites.Read("frame", 128*128*4, 8),
			suites.Read("templates", uint64(points*tmplSize*4), 4),
			suites.Write("tracking", points*16),
		}, 0.15)
		return nil
	})
}

// hotspot3d: thermal simulation stencil.
func hotspot3d() *suites.Bench {
	return bench("Rodinia Hotspot3D", "rd-hotspot3d", 48, func(e *suites.Emitter) error {
		const n, layers = 64, 4
		temp := make([]float64, n*n*layers)
		power := make([]float64, n*n*layers)
		for i := range temp {
			temp[i] = 330 + float64(i%7)
			power[i] = 0.01
		}
		out := make([]float64, n*n*layers)
		for step := 0; step < 3; step++ {
			for z := 0; z < layers; z++ {
				for y := 1; y < n-1; y++ {
					for x := 1; x < n-1; x++ {
						c := (z*n+y)*n + x
						out[c] = temp[c] + 0.1*(temp[c-1]+temp[c+1]+temp[c-n]+temp[c+n]-4*temp[c]) + power[c]
					}
				}
			}
			temp, out = out, temp
			cells := float64(n * n * layers)
			var m suites.Mix
			m.Add(isa.FP32, cells*10).Add(isa.INT, cells*4).
				Add(isa.LoadGlobal, cells*8).Add(isa.StoreGlobal, cells)
			e.Launch("hotspotOpt1", int(cells), &m, []suites.Stream{
				suites.Read("tIn", uint64(cells*4), 3),
				suites.Read("pIn", uint64(cells*4), 1),
				suites.Write("tOut", uint64(cells*4)),
			}, 0)
		}
		return nil
	})
}

// huffman: histogram + variable-length encoding.
func huffman() *suites.Bench {
	return bench("Rodinia Huffman", "rd-huffman", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(27))
		const n = 1 << 16
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(r.Intn(64))
		}
		hist := make([]int, 256)
		for _, b := range data {
			hist[b]++
		}
		var m suites.Mix
		m.Add(isa.INT, n*3).Add(isa.LoadGlobal, n).
			Add(isa.StoreShared, n).Add(isa.StoreGlobal, 256)
		e.Launch("histo_kernel", n, &m, []suites.Stream{
			suites.Read("data", n, 1),
			suites.Scatter("hist", 256*4, n/8),
		}, 0.1)
		// Encode with a mock canonical code (length ~ log2(rank)).
		bits := 0
		for _, b := range data {
			bits += 2 + int(b)%6
		}
		var m2 suites.Mix
		m2.Add(isa.INT, n*8).
			Add(isa.LoadGlobal, n*2).
			Add(isa.StoreGlobal, float64(bits/32)).
			Add(isa.Branch, n*2)
		e.Launch("vlc_encode_kernel_sm64huff", n, &m2, []suites.Stream{
			suites.Read("data", n, 1),
			suites.Broadcast("codewords", 256*8, n/4),
			suites.Write("out", uint64(bits/8)),
		}, 0.3)
		return nil
	})
}

// kmeans: iterative clustering — Rodinia's all-memory-intensive benchmark.
func kmeans() *suites.Bench {
	return bench("Rodinia Kmeans", "rd-kmeans", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(28))
		const n, dims, k = 1 << 13, 16, 5
		pts := make([]float64, n*dims)
		for i := range pts {
			pts[i] = r.Float64()
		}
		centers := make([]float64, k*dims)
		copy(centers, pts[:k*dims])
		assign := make([]int, n)
		for iter := 0; iter < 3; iter++ {
			// invert_mapping transposes the feature layout first.
			var im suites.Mix
			im.Add(isa.INT, float64(n*dims)).
				Add(isa.LoadGlobal, float64(n*dims)).
				Add(isa.StoreGlobal, float64(n*dims))
			e.Launch("invert_mapping", n, &im, []suites.Stream{
				suites.Read("input", uint64(n*dims*4), 1),
				suites.Write("input_t", uint64(n*dims*4)),
			}, 0)
			for i := 0; i < n; i++ {
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					var d float64
					for f := 0; f < dims; f++ {
						dv := pts[i*dims+f] - centers[c*dims+f]
						d += dv * dv
					}
					if d < bestD {
						best, bestD = c, d
					}
				}
				assign[i] = best
			}
			work := float64(n * k * dims)
			var m suites.Mix
			m.Add(isa.FP32, work*3).Add(isa.INT, work/2).
				Add(isa.LoadGlobal, work).
				Add(isa.StoreGlobal, n).
				Add(isa.Branch, float64(n*k))
			e.Launch("kmeansPoint", n, &m, []suites.Stream{
				suites.Read("features", uint64(n*dims*4), 1),
				suites.Broadcast("clusters", uint64(k*dims*4), uint64(work/8)),
				suites.Write("membership", n*4),
			}, 0.05)
		}
		return nil
	})
}

// lavamd: particle interactions inside neighboring boxes — compute-heavy.
func lavamd() *suites.Bench {
	return bench("Rodinia LavaMD", "rd-lavamd", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(29))
		const boxes, perBox = 64, 32
		pos := make([][4]float64, boxes*perBox)
		for i := range pos {
			pos[i] = [4]float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		}
		var energy float64
		interactions := 0
		for b := 0; b < boxes; b++ {
			for nb := 0; nb < 8; nb++ { // self + 7 sampled neighbor boxes
				for i := 0; i < perBox; i++ {
					for j := 0; j < perBox; j++ {
						p, q := pos[b*perBox+i], pos[((b+nb)%boxes)*perBox+j]
						dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
						d2 := dx*dx + dy*dy + dz*dz + 0.01
						energy += math.Exp(-d2) * p[3] * q[3]
						interactions++
					}
				}
			}
		}
		_ = energy
		work := float64(interactions)
		var m suites.Mix
		m.Add(isa.FP32, work*15).Add(isa.SFU, work).
			Add(isa.INT, work*2).
			Add(isa.LoadShared, work*2).
			Add(isa.LoadGlobal, work/8).
			Add(isa.Sync, float64(boxes*8)).
			Add(isa.StoreGlobal, float64(boxes*perBox*4))
		e.Launch("kernel_gpu_cuda", boxes*perBox, &m, []suites.Stream{
			suites.Read("rv_gpu", uint64(boxes*perBox*16), 8),
			suites.Write("fv_gpu", uint64(boxes*perBox*16)),
		}, 0.1)
		return nil
	})
}

// leukocyte: cell detection (GICOV) and tracking (dilate).
func leukocyte() *suites.Bench {
	return bench("Rodinia Leukocyte", "rd-leukocyte", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(30))
		const w, h = 160, 120
		img := make([]float64, w*h)
		for i := range img {
			img[i] = r.Float64()
		}
		var sum float64
		for i := 0; i < w*h; i++ {
			sum += img[i] * img[(i*7)%len(img)]
		}
		_ = sum
		work := float64(w * h * 150) // 150 sample points per pixel circle
		var m suites.Mix
		m.Add(isa.FP32, work*4).Add(isa.SFU, work/8).
			Add(isa.INT, work).
			Add(isa.LoadGlobal, work/4).
			Add(isa.LoadConst, work/2).
			Add(isa.StoreGlobal, float64(w*h))
		e.Launch("GICOV_kernel", w*h, &m, []suites.Stream{
			suites.Read("grad_x", uint64(w*h*4), 6),
			suites.Read("grad_y", uint64(w*h*4), 6),
			suites.Write("gicov", uint64(w*h*4)),
		}, 0.1)
		var m2 suites.Mix
		dwork := float64(w * h * 81)
		m2.Add(isa.FP32, dwork).Add(isa.INT, dwork*2).
			Add(isa.LoadGlobal, dwork/4).
			Add(isa.StoreGlobal, float64(w*h)).
			Add(isa.Branch, dwork/2)
		e.Launch("dilate_kernel", w*h, &m2, []suites.Stream{
			suites.Read("img_in", uint64(w*h*4), 9),
			suites.Write("img_dilated", uint64(w*h*4)),
		}, 0.2)
		return nil
	})
}

// lud: blocked LU decomposition — the paper's noted exception with one
// compute-intensive and one memory-intensive kernel.
func lud() *suites.Bench {
	return bench("Rodinia LUD", "rd-lud", 56, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(31))
		const n, blk = 128, 16
		a := make([]float64, n*n)
		for i := range a {
			a[i] = r.Float64()
			if i%n == i/n {
				a[i] += 10 // diagonally dominant
			}
		}
		for k := 0; k < n; k += blk {
			// Diagonal block factorization: small, latency/compute bound.
			for kk := k; kk < k+blk && kk < n-1; kk++ {
				piv := a[kk*n+kk]
				if piv == 0 {
					return fmt.Errorf("lud: zero pivot")
				}
				for i := kk + 1; i < k+blk && i < n; i++ {
					f := a[i*n+kk] / piv
					for j := kk; j < k+blk && j < n; j++ {
						a[i*n+j] -= f * a[kk*n+j]
					}
				}
			}
			// All blk^2 threads iterate the blk elimination steps with
			// barriers: the block is L1-resident, so the kernel is compute-
			// intensive — the paper's noted LUD exception.
			dwork := float64(blk * blk * blk)
			var dm suites.Mix
			dm.Add(isa.FP32, dwork*2).Add(isa.INT, dwork*2).
				Add(isa.LoadShared, dwork*2).Add(isa.StoreShared, dwork).
				Add(isa.LoadGlobal, blk*blk).Add(isa.StoreGlobal, blk*blk).
				Add(isa.Sync, blk*blk).Add(isa.Branch, dwork/2)
			e.Launch("lud_diagonal", blk*blk, &dm, []suites.Stream{
				suites.Read("m_diag", blk*blk*4, 2),
				suites.Write("m_diag_out", blk*blk*4),
			}, 0.1)
			trail := n - k - blk
			if trail <= 0 {
				continue
			}
			// Perimeter update: triangular solves along the block row and
			// column — streaming, memory-intensive.
			pwork := float64(trail) * blk * blk
			var pm suites.Mix
			pm.Add(isa.FP32, pwork/2).Add(isa.INT, pwork/2).
				Add(isa.LoadGlobal, pwork).
				Add(isa.StoreGlobal, pwork/2).
				Add(isa.Sync, float64(trail)/8)
			e.Launch("lud_perimeter", trail*blk, &pm, []suites.Stream{
				suites.Read("m_row_in", uint64(trail*blk*8), 1),
				suites.Read("m_col_in", uint64(trail*blk*8), 1),
				suites.Write("m_peri_out", uint64(trail*blk*8)),
			}, 0.1)
			// Internal update: GEMM-like over the trailing matrix — tiled
			// and compute-intensive.
			iwork := float64(trail) * float64(trail) * blk
			var im suites.Mix
			im.Add(isa.FP32, iwork).Add(isa.INT, iwork/4).
				Add(isa.LoadGlobal, iwork/16).
				Add(isa.LoadShared, iwork/2).
				Add(isa.StoreGlobal, float64(trail*trail)/4).
				Add(isa.Sync, float64(trail*trail)/256)
			e.Launch("lud_internal", trail*trail, &im, []suites.Stream{
				suites.Read("m_peri_row", uint64(trail*blk*4), 4),
				suites.Read("m_peri_col", uint64(trail*blk*4), 4),
				suites.Read("m_sub", uint64(trail*trail*4), 1),
				suites.Write("m_sub_out", uint64(trail*trail*4)),
			}, 0)
		}
		return nil
	})
}

// nearestNeighbor: distance scan over location records.
func nearestNeighbor() *suites.Bench {
	return bench("Rodinia NN", "rd-nn", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(32))
		const n = 1 << 15
		lat := make([]float64, n)
		lng := make([]float64, n)
		for i := range lat {
			lat[i], lng[i] = r.Float64()*180-90, r.Float64()*360-180
		}
		best, bestD := 0, math.Inf(1)
		for i := 0; i < n; i++ {
			d := (lat[i]-30)*(lat[i]-30) + (lng[i]-50)*(lng[i]-50)
			if d < bestD {
				best, bestD = i, d
			}
		}
		_ = best
		var m suites.Mix
		m.Add(isa.FP32, n*6).Add(isa.SFU, n).
			Add(isa.INT, n*2).
			Add(isa.LoadGlobal, n*2).Add(isa.StoreGlobal, n)
		e.Launch("euclid", n, &m, []suites.Stream{
			suites.Read("locations", n*8, 1),
			suites.Write("distances", n*4),
		}, 0)
		return nil
	})
}

// nw: Needleman-Wunsch sequence alignment (anti-diagonal wavefront).
func nw() *suites.Bench {
	return bench("Rodinia Needleman-Wunsch", "rd-nw", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(33))
		const n = 256
		score := make([]int, (n+1)*(n+1))
		seqA := make([]byte, n)
		seqB := make([]byte, n)
		for i := range seqA {
			seqA[i], seqB[i] = byte(r.Intn(4)), byte(r.Intn(4))
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				match := -1
				if seqA[i-1] == seqB[j-1] {
					match = 1
				}
				d := score[(i-1)*(n+1)+j-1] + match
				u := score[(i-1)*(n+1)+j] - 1
				l := score[i*(n+1)+j-1] - 1
				best := d
				if u > best {
					best = u
				}
				if l > best {
					best = l
				}
				score[i*(n+1)+j] = best
			}
		}
		cells := float64(n * n)
		half := cells / 2
		mk := func() *suites.Mix {
			var m suites.Mix
			m.Add(isa.INT, half*8).
				Add(isa.LoadGlobal, half*3).
				Add(isa.LoadShared, half*3).
				Add(isa.StoreGlobal, half).
				Add(isa.Sync, half/32).
				Add(isa.Branch, half*2)
			return &m
		}
		streams := func() []suites.Stream {
			return []suites.Stream{
				suites.Read("reference", uint64(half*4), 1),
				suites.Read("matrix_in", uint64(half*4), 2),
				suites.Write("matrix_out", uint64(half*4)),
			}
		}
		e.Launch("needle_cuda_shared_1", int(half), mk(), streams(), 0.2)
		e.Launch("needle_cuda_shared_2", int(half), mk(), streams(), 0.2)
		return nil
	})
}

// pathfinder: dynamic programming over a grid, one row at a time.
func pathfinder() *suites.Bench {
	return bench("Rodinia Pathfinder", "rd-pathfinder", 48, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(34))
		const cols, rows = 1 << 13, 8
		prev := make([]int, cols)
		cur := make([]int, cols)
		for i := range prev {
			prev[i] = r.Intn(10)
		}
		for row := 1; row < rows; row++ {
			for c := 0; c < cols; c++ {
				best := prev[c]
				if c > 0 && prev[c-1] < best {
					best = prev[c-1]
				}
				if c+1 < cols && prev[c+1] < best {
					best = prev[c+1]
				}
				cur[c] = best + r.Intn(10)
			}
			prev, cur = cur, prev
		}
		work := float64(cols * (rows - 1))
		var m suites.Mix
		m.Add(isa.INT, work*6).
			Add(isa.LoadGlobal, work).
			Add(isa.LoadShared, work*3).
			Add(isa.StoreGlobal, work).
			Add(isa.Sync, work/64).
			Add(isa.Branch, work*2)
		e.Launch("dynproc_kernel", cols, &m, []suites.Stream{
			suites.Read("gpuWall", uint64(work*4), 1),
			suites.Write("gpuResults", cols*4),
		}, 0.1)
		return nil
	})
}

// sradV1: speckle-reducing anisotropic diffusion — two memory-intensive
// kernels, per the paper's classification.
func sradV1() *suites.Bench {
	return bench("Rodinia SRAD v1", "rd-srad", 48, func(e *suites.Emitter) error {
		const n = 128
		img := make([]float64, n*n)
		for i := range img {
			img[i] = 1 + 0.1*float64(i%13)
		}
		dN := make([]float64, n*n)
		for iter := 0; iter < 2; iter++ {
			for y := 1; y < n-1; y++ {
				for x := 1; x < n-1; x++ {
					c := y*n + x
					dN[c] = img[c-n] - img[c]
				}
			}
			cells := float64(n * n)
			var m1 suites.Mix
			m1.Add(isa.FP32, cells*12).Add(isa.SFU, cells).
				Add(isa.INT, cells*4).
				Add(isa.LoadGlobal, cells*5).
				Add(isa.StoreGlobal, cells*5)
			e.Launch("srad_kernel_1", int(cells), &m1, []suites.Stream{
				suites.Read("I", uint64(cells*4), 5),
				suites.Write("dN_dS_dE_dW", uint64(cells*16)),
			}, 0.05)
			var m2 suites.Mix
			m2.Add(isa.FP32, cells*8).
				Add(isa.INT, cells*3).
				Add(isa.LoadGlobal, cells*5).
				Add(isa.StoreGlobal, cells)
			e.Launch("srad_kernel_2", int(cells), &m2, []suites.Stream{
				suites.Read("dN_dS_dE_dW", uint64(cells*16), 1),
				suites.Read("c", uint64(cells*4), 2),
				suites.Write("I_out", uint64(cells*4)),
			}, 0.05)
		}
		return nil
	})
}

// streamcluster: online clustering gain computation.
func streamcluster() *suites.Bench {
	return bench("Rodinia Streamcluster", "rd-streamcluster", 40, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(35))
		const n, dims, centers = 1 << 12, 32, 16
		pts := make([]float64, n*dims)
		for i := range pts {
			pts[i] = r.Float64()
		}
		var gain float64
		for i := 0; i < n; i++ {
			for c := 0; c < centers; c++ {
				var d float64
				for f := 0; f < dims; f++ {
					dv := pts[i*dims+f] - pts[c*dims+f]
					d += dv * dv
				}
				gain += d
			}
		}
		_ = gain
		work := float64(n * centers * dims)
		var m suites.Mix
		m.Add(isa.FP32, work*3).
			Add(isa.INT, work/2).
			Add(isa.LoadGlobal, work).
			Add(isa.StoreGlobal, float64(n*centers)).
			Add(isa.Branch, float64(n*centers))
		e.Launch("kernel_compute_cost", n, &m, []suites.Stream{
			suites.Read("points", uint64(n*dims*4), 1),
			suites.Broadcast("centers", centers*dims*4, uint64(work/8)),
			suites.Write("cost", uint64(n*centers*4)),
		}, 0.05)
		return nil
	})
}
