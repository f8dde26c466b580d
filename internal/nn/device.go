// Package nn is the neural-network framework behind the five Cactus machine-
// learning workloads (and the Tango baselines). It provides a tape-based
// autograd over internal/tensor, CuDNN-style layers (Conv2d,
// ConvTranspose2d, Linear, BatchNorm2d, Embedding, GRUCell, the spatial-
// transformer ops), losses, and optimizers. Every operation computes its
// result functionally AND launches the corresponding device kernels —
// forward ops at forward time, gradient kernels (dgrad/wgrad/...) during the
// backward pass — with names parameterized by shape class the way CuDNN
// template instantiations are, so distinct layer shapes appear as distinct
// kernels in the profile, exactly as in the paper's PyTorch workloads.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// Device couples the framework to a profiling session.
type Device struct {
	sess *profiler.Session
	// Replication extrapolates reduced model/batch sizes to paper scale:
	// instruction mixes and memory streams scale by this factor (the
	// simulated tensors are a tile of the full-size ones).
	Replication float64
	// RNG drives weight init and samplers; seeded per workload.
	RNG *rand.Rand
}

// NewDevice builds a device context. replication < 1 is clamped to 1.
func NewDevice(sess *profiler.Session, replication float64, seed int64) *Device {
	if replication < 1 {
		replication = 1
	}
	return &Device{sess: sess, Replication: replication, RNG: rand.New(rand.NewSource(seed))}
}

// emit launches one kernel scaled by the replication factor.
func (d *Device) emit(name string, threads int, mix isa.Mix, streams []memsim.Stream, div float64) {
	d.sess.Submit(gpu.Replicated(name, threads, 256, d.Replication, mix, streams, div))
}

// bucket rounds n to the nearest power of two for kernel-name shape classes
// (CuDNN tiles come in power-of-two template sizes).
func bucket(n int) int {
	b := 1
	for b*2 <= n {
		b *= 2
	}
	return b
}

// readStream describes a dense coalesced read of bytes total.
func readStream(name string, bytes uint64, reuse float64) memsim.Stream {
	if reuse < 1 {
		reuse = 1
	}
	return memsim.Stream{
		Name: name, FootprintBytes: bytes, AccessBytes: uint64(float64(bytes) * reuse),
		ElemBytes: 4, Pattern: memsim.Coalesced, Partitioned: true,
	}
}

// writeStream describes a dense coalesced write of bytes total.
func writeStream(name string, bytes uint64) memsim.Stream {
	return memsim.Stream{
		Name: name, FootprintBytes: bytes, AccessBytes: bytes,
		ElemBytes: 4, Pattern: memsim.Coalesced, Store: true, Partitioned: true,
	}
}

// emitGEMM launches a cuBLAS-style SGEMM kernel for C(MxN) = A(MxK) B(KxN).
// The kernel name encodes layout and tile bucket, so each distinct GEMM
// shape class in a model is a distinct kernel.
func (d *Device) emitGEMM(m, n, k int, transA, transB bool) {
	layout := "nn"
	switch {
	case transA && transB:
		layout = "tt"
	case transA:
		layout = "tn"
	case transB:
		layout = "nt"
	}
	name := fmt.Sprintf("ampere_sgemm_%dx%dx%d_%s", bucket(min(m, 128)), bucket(min(n, 128)), bucket(min(k, 128)), layout)
	flops := 2 * float64(m) * float64(n) * float64(k)
	var mix isa.Mix
	mix.Add(isa.FP32, isa.Warps(flops/2)) // FFMA counts as one warp instruction
	mix.Add(isa.INT, isa.Warps(flops/16))
	mix.Add(isa.LoadShared, isa.Warps(flops/8))
	mix.Add(isa.StoreShared, isa.Warps(flops/32))
	mix.Add(isa.LoadGlobal, isa.Warps(float64(m*k+k*n)/4))
	mix.Add(isa.StoreGlobal, isa.Warps(float64(m*n)/4))
	mix.Add(isa.Sync, isa.Warps(float64(m*n)/256+1))
	mix.Add(isa.Misc, isa.Warps(flops/32))
	// Tiled GEMM re-reads A and B ~sqrt(tile) times through the caches.
	// B is usually the parameter side of a layer GEMM, so it scales as a
	// weight stream under replication.
	reuse := 8.0
	streams := []memsim.Stream{
		readStream("A", uint64(m*k*4), reuse),
		readStream(gpu.FixedPrefix+"B", uint64(k*n*4), reuse),
		writeStream("C", uint64(m*n*4)),
	}
	d.emit(name, m*n/4+1, mix, streams, 0)
}

// emitConv launches an implicit-GEMM convolution kernel (fprop, dgrad or
// wgrad), with cost derived from the MAC count.
func (d *Device) emitConv(kind string, n, c, f, oh, ow, kh, kw int, xBytes, wBytes, yBytes uint64) {
	// The batch bucket mirrors CuDNN algorithm selection: batch-1 inference
	// and batched training pick different kernels.
	name := fmt.Sprintf("implicit_gemm_%s_c%d_f%d_k%d_b%d", kind, c, f, kh, bucket(n))
	macs := float64(n*f*oh*ow) * float64(c*kh*kw)
	var mix isa.Mix
	mix.Add(isa.FP32, isa.Warps(macs))
	mix.Add(isa.INT, isa.Warps(macs/4))
	mix.Add(isa.LoadShared, isa.Warps(macs/4))
	mix.Add(isa.StoreShared, isa.Warps(macs/16))
	mix.Add(isa.LoadGlobal, isa.Warps(float64(xBytes+wBytes)/16))
	mix.Add(isa.StoreGlobal, isa.Warps(float64(yBytes)/16))
	mix.Add(isa.Sync, isa.Warps(macs/2048+1))
	mix.Add(isa.Misc, isa.Warps(macs/16))
	streams := []memsim.Stream{
		readStream("x", xBytes, 4),
		readStream(gpu.FixedPrefix+"w", wBytes, 8),
		writeStream("y", yBytes),
	}
	d.emit(name, n*f*oh*ow, mix, streams, 0)
}

// emitElementwise launches a pointwise kernel over elems elements with
// opCost arithmetic instructions and sfuPerElem transcendental ones (tanh,
// sigmoid, exp on the SFU pipe) per element. inputs/outputs give the tensor
// traffic multiplicity.
func (d *Device) emitElementwise(name string, elems int, opCost, sfuPerElem float64, inputs, outputs int) {
	e := float64(elems)
	var mix isa.Mix
	mix.Add(isa.FP32, isa.Warps(e*opCost))
	if sfuPerElem > 0 {
		mix.Add(isa.SFU, isa.Warps(e*sfuPerElem))
	}
	mix.Add(isa.INT, isa.Warps(e))
	mix.Add(isa.LoadGlobal, isa.Warps(e*float64(inputs)))
	mix.Add(isa.StoreGlobal, isa.Warps(e*float64(outputs)))
	mix.Add(isa.Misc, isa.Warps(e))
	bytes := uint64(elems * 4)
	var streams []memsim.Stream
	for i := 0; i < inputs; i++ {
		streams = append(streams, readStream(fmt.Sprintf("in%d", i), bytes, 1))
	}
	for i := 0; i < outputs; i++ {
		streams = append(streams, writeStream(fmt.Sprintf("out%d", i), bytes))
	}
	d.emit(name, elems, mix, streams, 0)
}

// EmitNamed launches a named auxiliary pointwise kernel — data loading,
// sampling, preprocessing and similar pipeline stages that workloads perform
// outside the layer graph.
func (d *Device) EmitNamed(name string, elems int, opCost float64, inputs, outputs int) {
	d.emitElementwise(name, elems, opCost, 0, inputs, outputs)
}

// EmitParamOp is the exported form of emitParamOp for workload code.
func (d *Device) EmitParamOp(name string, elems int, opCost float64, inputs, outputs int) {
	d.emitParamOp(name, elems, opCost, 0, inputs, outputs)
}

// emitParamOp launches a pointwise kernel whose size tracks the parameter
// count (optimizer steps, gradient zeroing, target-network copies).
// Parameters grow ~sqrt(R) under replication, so the element count is
// pre-compensated to net out at sqrt(R) after the emit-time scaling.
func (d *Device) emitParamOp(name string, elems int, opCost, sfu float64, inputs, outputs int) {
	eff := int(float64(elems) / math.Sqrt(d.Replication))
	if eff < 1 {
		eff = 1
	}
	d.emitElementwise(name, eff, opCost, sfu, inputs, outputs)
}

// emitReduce launches a reduction kernel over elems inputs.
func (d *Device) emitReduce(name string, elems int) {
	e := float64(elems)
	var mix isa.Mix
	mix.Add(isa.FP32, isa.Warps(e))
	mix.Add(isa.INT, isa.Warps(e))
	mix.Add(isa.LoadGlobal, isa.Warps(e))
	mix.Add(isa.LoadShared, isa.Warps(e/2+1))
	mix.Add(isa.StoreShared, isa.Warps(e/2+1))
	mix.Add(isa.Sync, isa.Warps(e/64+1))
	mix.Add(isa.StoreGlobal, isa.Warps(e/256+1))
	mix.Add(isa.Misc, isa.Warps(e))
	d.emit(name, elems, mix, []memsim.Stream{readStream("in", uint64(elems*4), 1)}, 0)
}
