package core

import "repro/internal/roofline"

// DeviceComparison records one workload's aggregate behavior on two devices
// — the cross-platform sensitivity study the paper lists as future work.
type DeviceComparison struct {
	Abbr string
	// A and B are the aggregate roofline points on the two devices.
	A, B roofline.Point
	// SideStable reports whether the workload stays on the same side of
	// each device's own elbow.
	SideStable bool
	// Speedup is device A's aggregate GIPS over device B's.
	Speedup float64
}

// CompareDevices characterizes the same workloads on two device models and
// reports per-workload placement stability and speedups.
func CompareDevices(a, b *Study) ([]DeviceComparison, error) {
	ma, mb := roofline.ForDevice(a.Device), roofline.ForDevice(b.Device)
	var out []DeviceComparison
	for _, pa := range a.Profiles {
		pb, err := b.Profile(pa.Abbr())
		if err != nil {
			return nil, err
		}
		cmpRec := DeviceComparison{
			Abbr: pa.Abbr(),
			A:    pa.AggregatePoint(),
			B:    pb.AggregatePoint(),
		}
		cmpRec.SideStable = ma.Classify(pa.AggII) == mb.Classify(pb.AggII)
		if pb.AggGIPS > 0 {
			cmpRec.Speedup = pa.AggGIPS / pb.AggGIPS
		}
		out = append(out, cmpRec)
	}
	return out, nil
}
