// Package tango implements the Tango subset of Table III: AlexNet (AN),
// ResNet (RN), SqueezeNet (SN). Tango's benchmarks use custom monolithic
// CUDA kernels rather than CuDNN — one generic kernel per operation type —
// so each network's profile concentrates in a handful of kernels, unlike
// the Cactus PyTorch workloads. Inference forward passes are computed for
// real at reduced scale through internal/tensor.
package tango

import (
	"math/rand"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/suites"
	"repro/internal/tensor"
	"repro/internal/workloads"
)

// All returns the Tango benchmarks.
func All() []workloads.Workload {
	return []workloads.Workload{AlexNet(), ResNet(), SqueezeNet()}
}

func bench(name, abbr string, repl float64, body func(e *suites.Emitter) error) *suites.Bench {
	return &suites.Bench{
		BenchName: name, BenchAbbr: abbr,
		BenchSuite: workloads.Tango, BenchDomain: workloads.MachineL,
		Replication: repl, Body: body,
	}
}

// layerSpec describes one layer of a Tango network.
type layerSpec struct {
	kind              string // conv, fc, pool, norm
	inC, outC, kernel int
	size              int // input spatial size
}

// runNet executes the forward pass for real (reduced channel counts) and
// launches Tango's generic per-op kernels with aggregated counts — the
// custom-kernel structure that concentrates GPU time in few kernels.
func runNet(e *suites.Emitter, r *rand.Rand, layers []layerSpec) error {
	var convWork, convX, convW, convY float64
	var fcWork, fcX, fcW float64
	var poolWork, poolBytes float64
	var normWork, normBytes float64
	var x *tensor.Tensor

	for _, l := range layers {
		switch l.kind {
		case "conv":
			// Compute a real (sampled) convolution for this shape.
			in := tensor.Randn(r, 1, 1, l.inC, l.size, l.size)
			w := tensor.Randn(r, 0.1, l.outC, l.inC, l.kernel, l.kernel)
			y, err := tensor.Conv2D(in, w, nil, 1, l.kernel/2)
			if err != nil {
				return err
			}
			x = y
			macs := float64(l.outC*l.size*l.size) * float64(l.inC*l.kernel*l.kernel)
			convWork += macs
			convX += float64(in.Numel() * 4)
			convW += float64(w.Numel() * 4)
			convY += float64(y.Numel() * 4)
		case "fc":
			in := tensor.Randn(r, 1, 1, l.inC)
			w := tensor.Randn(r, 0.1, l.inC, l.outC)
			y, err := tensor.MatMul(in, w, false, false)
			if err != nil {
				return err
			}
			_ = y
			fcWork += float64(l.inC * l.outC)
			fcX += float64(l.inC * 4)
			fcW += float64(l.inC * l.outC * 4)
		case "pool":
			elems := float64(l.inC * l.size * l.size)
			poolWork += elems * 4
			poolBytes += elems * 4
		case "norm":
			elems := float64(l.inC * l.size * l.size)
			normWork += elems * 6
			normBytes += elems * 4
		}
	}
	_ = x

	var cm suites.Mix
	cm.Add(isa.FP32, convWork).
		Add(isa.INT, convWork/2). // naive per-thread index arithmetic
		Add(isa.LoadShared, convWork/4).
		Add(isa.LoadGlobal, (convX+convW)/16).
		Add(isa.StoreGlobal, convY/16).
		Add(isa.Sync, convWork/2048)
	e.Launch("conv2d_gpu", int(convWork/256), &cm, []suites.Stream{
		suites.Read("act", uint64(convX), 2),
		suites.Read(gpu.FixedPrefix+"filters", uint64(convW), 8),
		suites.Write("out", uint64(convY)),
	}, 0.05)

	if fcWork > 0 {
		// Tango's fully connected layers stream enormous weight matrices at
		// batch 1: the memory-intensive kernel of AlexNet.
		var fm suites.Mix
		fm.Add(isa.FP32, fcWork).
			Add(isa.INT, fcWork/8).
			Add(isa.LoadGlobal, fcWork/2).
			Add(isa.StoreGlobal, fcX/4)
		e.Launch("fc_gpu", int(fcWork/512), &fm, []suites.Stream{
			suites.Read(gpu.FixedPrefix+"weights", uint64(fcW), 1),
			suites.Read("act", uint64(fcX), 4),
			suites.Write("out", uint64(fcX)),
		}, 0)
	}
	if poolWork > 0 {
		var pm suites.Mix
		pm.Add(isa.FP32, poolWork).
			Add(isa.INT, poolWork).
			Add(isa.LoadGlobal, poolBytes/4).
			Add(isa.StoreGlobal, poolBytes/16)
		e.Launch("maxpool_gpu", int(poolBytes/4), &pm, []suites.Stream{
			suites.Read("act", uint64(poolBytes), 1),
			suites.Write("out", uint64(poolBytes/4)),
		}, 0.1)
	}
	if normWork > 0 {
		var nm suites.Mix
		nm.Add(isa.FP32, normWork).
			Add(isa.SFU, normWork/8).
			Add(isa.LoadGlobal, normBytes/4).
			Add(isa.StoreGlobal, normBytes/4)
		e.Launch("norm_gpu", int(normBytes/4), &nm, []suites.Stream{
			suites.Read("act", uint64(normBytes), 2),
			suites.Write("out", uint64(normBytes)),
		}, 0)
	}
	return nil
}

// AlexNet returns AN: 5 conv + 3 fc + pooling + LRN. Per the paper, AN has
// three notable kernels, two compute-intensive and one memory-intensive
// (the fc weight streaming).
func AlexNet() *suites.Bench {
	return bench("Tango AlexNet", "AN", 96, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(41))
		layers := []layerSpec{
			{"conv", 3, 24, 11, 56}, {"norm", 24, 0, 0, 28}, {"pool", 24, 0, 0, 28},
			{"conv", 24, 64, 5, 28}, {"norm", 64, 0, 0, 14}, {"pool", 64, 0, 0, 14},
			{"conv", 64, 96, 3, 14}, {"conv", 96, 96, 3, 14}, {"conv", 96, 64, 3, 14},
			{"pool", 64, 0, 0, 7},
			{"fc", 64 * 49, 1024, 0, 0}, {"fc", 1024, 1024, 0, 0}, {"fc", 1024, 100, 0, 0},
		}
		return runNet(e, r, layers)
	})
}

// ResNet returns RN: deep stacks of 3x3 convolutions with batch norm — all
// compute-intensive per the paper.
func ResNet() *suites.Bench {
	return bench("Tango ResNet", "RN", 96, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(42))
		var layers []layerSpec
		layers = append(layers, layerSpec{"conv", 3, 16, 7, 56})
		widths := []int{16, 16, 32, 32, 64, 64}
		size := 28
		for i, w := range widths {
			in := w
			if i > 0 {
				in = widths[i-1]
			}
			layers = append(layers,
				layerSpec{"conv", in, w, 3, size},
				layerSpec{"conv", w, w, 3, size},
				layerSpec{"norm", w, 0, 0, size})
			if i%2 == 1 && size > 7 {
				size /= 2
			}
		}
		layers = append(layers, layerSpec{"fc", 64 * 49, 100, 0, 0})
		return runNet(e, r, layers)
	})
}

// SqueezeNet returns SN: fire modules (squeeze 1x1 + expand 1x1/3x3) — all
// compute-intensive per the paper.
func SqueezeNet() *suites.Bench {
	return bench("Tango SqueezeNet", "SN", 96, func(e *suites.Emitter) error {
		r := rand.New(rand.NewSource(43))
		var layers []layerSpec
		layers = append(layers, layerSpec{"conv", 3, 24, 7, 56}, layerSpec{"pool", 24, 0, 0, 28})
		squeeze := []int{16, 24, 32, 32, 48}
		size := 28
		for i, s := range squeeze {
			in := 24
			if i > 0 {
				in = squeeze[i-1] * 8
			}
			layers = append(layers,
				layerSpec{"conv", in, s, 1, size},    // squeeze
				layerSpec{"conv", s, s * 4, 1, size}, // expand 1x1
				layerSpec{"conv", s, s * 4, 3, size}) // expand 3x3
			if i == 2 && size > 7 {
				size /= 2
			}
		}
		layers = append(layers, layerSpec{"conv", squeeze[len(squeeze)-1] * 8, 100, 1, size})
		return runNet(e, r, layers)
	})
}
