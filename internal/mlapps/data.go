// Package mlapps implements the five Cactus machine-learning workloads —
// DCGAN training (DCG), Neural Style transfer (NST), Deep-Q reinforcement
// learning on a flappy-bird environment (RFL), spatial-transformer training
// (SPT), and seq2seq language translation (LGT) — on the internal/nn
// framework. Dataset inputs are procedural stand-ins for the paper's
// Celeb-A, MNIST, game frames, and Spacy corpora: training-phase kernel
// behavior depends on tensor shapes and loop structure, which the
// generators preserve (see DESIGN.md, substitutions).
package mlapps

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// faceBatch generates a batch of procedural "face-like" images: smooth
// low-frequency blobs with channel correlations, normalized to [-1, 1] —
// the Celeb-A stand-in for DCGAN.
func faceBatch(r *rand.Rand, batch, size int) *tensor.Tensor {
	t := tensor.New(batch, 3, size, size)
	for b := 0; b < batch; b++ {
		cx := 0.5 + 0.1*r.NormFloat64()
		cy := 0.45 + 0.1*r.NormFloat64()
		tone := 0.3 + 0.4*r.Float64()
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				dx := float64(x)/float64(size) - cx
				dy := float64(y)/float64(size) - cy
				face := math.Exp(-(dx*dx + dy*dy) * 12)
				eyes := math.Exp(-((dx-0.12)*(dx-0.12)+(dy+0.08)*(dy+0.08))*260) +
					math.Exp(-((dx+0.12)*(dx+0.12)+(dy+0.08)*(dy+0.08))*260)
				v := tone*face - 0.5*eyes + 0.05*r.NormFloat64()
				for c := 0; c < 3; c++ {
					shade := v * (1 - 0.15*float64(c))
					t.Data[((b*3+c)*size+y)*size+x] = float32(2*clamp01(shade+0.3) - 1)
				}
			}
		}
	}
	return t
}

// artImage generates a structured image: content images get geometric
// shapes, style images get oscillating textures — the stand-ins for the
// Neural Style content/style pair.
func artImage(r *rand.Rand, size int, style bool) *tensor.Tensor {
	t := tensor.New(1, 3, size, size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			var v float64
			if style {
				v = 0.5 + 0.3*math.Sin(float64(x)*0.7)*math.Cos(float64(y)*0.5) +
					0.2*math.Sin(float64(x+y)*0.3)
			} else {
				// Content: a square and a disc.
				v = 0.2
				if x > size/6 && x < size/2 && y > size/6 && y < size/2 {
					v = 0.8
				}
				dx, dy := float64(x-2*size/3), float64(y-2*size/3)
				if dx*dx+dy*dy < float64(size*size)/36 {
					v = 0.6
				}
			}
			v += 0.03 * r.NormFloat64()
			for c := 0; c < 3; c++ {
				t.Data[((0*3+c)*size+y)*size+x] = float32(clamp01(v * (1 - 0.1*float64(c))))
			}
		}
	}
	return t
}

// digitBatch generates procedural digit glyphs (stroke patterns per class)
// with jitter — the MNIST stand-in for the spatial transformer. Returns
// images (batch, 1, size, size) and labels. When distort is set, each digit
// is randomly rotated/translated, giving the transformer something to undo.
func digitBatch(r *rand.Rand, batch, size, classes int, distort bool) (*tensor.Tensor, []int) {
	t := tensor.New(batch, 1, size, size)
	labels := make([]int, batch)
	for b := 0; b < batch; b++ {
		lab := r.Intn(classes)
		labels[b] = lab
		angle := 0.0
		shiftX, shiftY := 0.0, 0.0
		if distort {
			angle = (r.Float64() - 0.5) * 0.9
			shiftX = (r.Float64() - 0.5) * 0.25 * float64(size)
			shiftY = (r.Float64() - 0.5) * 0.25 * float64(size)
		}
		cosA, sinA := math.Cos(angle), math.Sin(angle)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				// Rotate/translate back into glyph space.
				fx := float64(x) - float64(size)/2 - shiftX
				fy := float64(y) - float64(size)/2 - shiftY
				gx := (cosA*fx + sinA*fy) / float64(size) * 2
				gy := (-sinA*fx + cosA*fy) / float64(size) * 2
				v := glyph(lab, gx, gy)
				t.Data[(b*size+y)*size+x] = float32(clamp01(v + 0.05*r.NormFloat64()))
			}
		}
	}
	return t, labels
}

// glyph renders class-dependent stroke patterns over [-1,1]^2.
func glyph(class int, x, y float64) float64 {
	switch class % 4 {
	case 0: // ring
		rr := math.Sqrt(x*x + y*y)
		return math.Exp(-(rr - 0.55) * (rr - 0.55) * 40)
	case 1: // vertical bar
		return math.Exp(-x * x * 30)
	case 2: // cross
		return math.Max(math.Exp(-x*x*30), math.Exp(-y*y*30))
	default: // diagonal
		d := (x - y) / math.Sqrt2
		return math.Exp(-d * d * 30)
	}
}

// parallelCorpus generates a synthetic translation corpus: "source"
// sentences are random token sequences from a Zipf-ish distribution, and
// "target" sentences are a deterministic transformation (token mapping +
// local reordering), so a seq2seq model has real structure to learn — the
// Spacy German-English stand-in.
type parallelCorpus struct {
	SrcVocab, DstVocab int
	Pairs              [][2][]int
}

func newParallelCorpus(r *rand.Rand, nPairs, srcVocab, dstVocab, minLen, maxLen int) *parallelCorpus {
	c := &parallelCorpus{SrcVocab: srcVocab, DstVocab: dstVocab}
	for i := 0; i < nPairs; i++ {
		n := minLen + r.Intn(maxLen-minLen+1)
		src := make([]int, n)
		for j := range src {
			// Zipf-ish: low ids much more frequent.
			src[j] = int(math.Abs(r.NormFloat64()) / 2.5 * float64(srcVocab))
			if src[j] >= srcVocab-2 {
				src[j] = srcVocab - 3
			}
			src[j] += 2 // reserve 0=pad, 1=eos
		}
		dst := make([]int, n)
		for j := range dst {
			// Deterministic mapping with a local swap pattern.
			k := j
			if j+1 < n && j%2 == 0 {
				k = j + 1
			} else if j%2 == 1 {
				k = j - 1
			}
			dst[j] = (src[k]*7+3)%(dstVocab-2) + 2
		}
		src = append(src, 1)
		dst = append(dst, 1)
		c.Pairs = append(c.Pairs, [2][]int{src, dst})
	}
	return c
}

// flappyEnv is a minimal flappy-bird physics simulation producing stacked
// grayscale frames as observations — the RFL environment.
type flappyEnv struct {
	r        *rand.Rand
	size     int
	birdY    float64
	birdVel  float64
	pipeX    float64
	gapY     float64
	lastObs  []*tensor.Tensor // last 4 frames
	gapSize  float64
	terminal bool
}

func newFlappyEnv(r *rand.Rand, size int) *flappyEnv {
	e := &flappyEnv{r: r, size: size, gapSize: 0.35}
	e.reset()
	return e
}

func (e *flappyEnv) reset() {
	e.birdY = 0.5
	e.birdVel = 0
	e.pipeX = 1.0
	e.gapY = 0.3 + 0.4*e.r.Float64()
	e.terminal = false
	e.lastObs = nil
	frame := e.render()
	for i := 0; i < 4; i++ {
		e.lastObs = append(e.lastObs, frame)
	}
}

// step advances physics: action 1 = flap. Returns reward and terminal flag.
func (e *flappyEnv) step(action int) (float64, bool) {
	if e.terminal {
		e.reset()
	}
	if action == 1 {
		e.birdVel = -0.045
	}
	e.birdVel += 0.008
	e.birdY += e.birdVel
	e.pipeX -= 0.04
	reward := 0.1
	if e.pipeX < -0.1 {
		e.pipeX = 1.0
		e.gapY = 0.3 + 0.4*e.r.Float64()
		reward = 1.0
	}
	// Collision: bird at x=0.3.
	if e.birdY < 0 || e.birdY > 1 {
		e.terminal = true
	}
	if math.Abs(e.pipeX-0.3) < 0.08 {
		if e.birdY < e.gapY-e.gapSize/2 || e.birdY > e.gapY+e.gapSize/2 {
			e.terminal = true
		}
	}
	if e.terminal {
		reward = -1.0
	}
	frame := e.render()
	e.lastObs = append(e.lastObs[1:], frame)
	return reward, e.terminal
}

// render draws the current state as a size x size grayscale frame.
func (e *flappyEnv) render() *tensor.Tensor {
	t := tensor.New(1, e.size, e.size)
	for y := 0; y < e.size; y++ {
		for x := 0; x < e.size; x++ {
			fx, fy := float64(x)/float64(e.size), float64(y)/float64(e.size)
			var v float64
			// Pipe.
			if math.Abs(fx-e.pipeX) < 0.06 && (fy < e.gapY-e.gapSize/2 || fy > e.gapY+e.gapSize/2) {
				v = 0.8
			}
			// Bird.
			dx, dy := fx-0.3, fy-e.birdY
			if dx*dx+dy*dy < 0.002 {
				v = 1.0
			}
			t.Data[y*e.size+x] = float32(v)
		}
	}
	return t
}

// observation returns the stacked last-4-frames tensor (1, 4, size, size).
func (e *flappyEnv) observation() *tensor.Tensor {
	t := tensor.New(1, 4, e.size, e.size)
	for i, f := range e.lastObs {
		copy(t.Data[i*e.size*e.size:(i+1)*e.size*e.size], f.Data)
	}
	return t
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
