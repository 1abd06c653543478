package metric

// This file is the portable half of the distance-kernel layer: the scalar
// reference kernels and the unrolled multi-accumulator variants the
// build-tag dispatch files (kernel_native.go, kernel_purego.go) bind to the
// package-level dotF32/dotI8 symbols every distance computation in this
// package funnels through — vecData.cosine/cosineRow/cosineRows, the
// DenseF32 materialization, and the blocked f32 tiles.
//
// Dispatch contract. Within one build exactly one kernel pair is selected,
// so every read path shares its floating-point behavior: a cached vector
// row always holds bit for bit the values Distance returns, whichever
// kernel is compiled in. Across builds the kernels differ only in summation order:
//
//   - dotI8 accumulates in int32, where addition is associative — every
//     variant is bitwise identical to the scalar reference on every input
//     (pinned by TestDotI8KernelsExact), and native builds bind the scalar
//     kernel outright because unrolling measures slower (see dotI8Unrolled).
//   - dotF32 accumulates in float32, where addition is not associative —
//     the unrolled variant agrees with the scalar reference only up to the
//     usual length-scaled rounding (pinned by TestDotF32KernelsClose). The
//     float64-divide-and-clamp cosine contract on top is unchanged either
//     way.
//
// The `purego` build tag forces the scalar reference everywhere — the
// fallback CI keeps honest — and KernelVariant names the selected build
// ("purego", "amd64-v3", …) so /stats and bench reports record which
// kernels produced a measurement.

// dotUnroll is the unrolled kernels' accumulator lane count. Eight
// independent chains keep a modern core's FP add pipes full (the scalar
// loop is latency-bound on one chain); int8 needs fewer, but sharing one
// stride keeps the ragged-tail test surface identical.
const dotUnroll = 8

// dotF32Scalar is the single-accumulator reference: one dependent
// multiply-add chain, in exactly the summation order the pre-dispatch
// implementation used. It is the purego binding and every test's oracle.
func dotF32Scalar(a, b []float32) float32 {
	var s float32
	b = b[:len(a)]
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

// dotF32Unrolled accumulates dotUnroll independent partial sums so the FP
// adds pipeline instead of serializing on one chain, then folds the lanes
// pairwise and finishes the ragged tail scalar.
func dotF32Unrolled(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+dotUnroll <= len(a); i += dotUnroll {
		aa := a[i : i+dotUnroll : i+dotUnroll]
		bb := b[i : i+dotUnroll : i+dotUnroll]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	s := ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dotI8Scalar is the single-accumulator int8 reference: Σ a_k·b_k
// accumulated in int32 (a dim-64k vector of ±127 products stays far from
// overflow).
func dotI8Scalar(a, b []int8) float32 {
	var s int32
	b = b[:len(a)]
	for k, x := range a {
		s += int32(x) * int32(b[k])
	}
	return float32(s)
}

// dotI8Unrolled is dotI8Scalar over dotUnroll independent int32 lanes.
// Integer addition is associative, so the result is bitwise identical to
// the scalar reference on every input.
//
// Retained as a documented negative result: no build binds it. Unlike the
// float32 case there is no FP-add latency chain to break — int32 adds
// retire in one cycle — so the extra registers and code size make this
// variant ~10% slower than the scalar loop on amd64 (measured at d=1024,
// GOAMD64 v1 and v3). The bitwise-equality property test keeps it honest
// should a future architecture tip the trade the other way.
func dotI8Unrolled(a, b []int8) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	i := 0
	for ; i+dotUnroll <= len(a); i += dotUnroll {
		aa := a[i : i+dotUnroll : i+dotUnroll]
		bb := b[i : i+dotUnroll : i+dotUnroll]
		s0 += int32(aa[0]) * int32(bb[0])
		s1 += int32(aa[1]) * int32(bb[1])
		s2 += int32(aa[2]) * int32(bb[2])
		s3 += int32(aa[3]) * int32(bb[3])
		s4 += int32(aa[4]) * int32(bb[4])
		s5 += int32(aa[5]) * int32(bb[5])
		s6 += int32(aa[6]) * int32(bb[6])
		s7 += int32(aa[7]) * int32(bb[7])
	}
	s := s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return float32(s)
}

// KernelVariant names the dot-kernel build this binary runs: "purego" for
// the forced scalar fallback, otherwise the target's microarchitecture
// level ("amd64-v3", "arm64", "generic", …). Serving stats and bench
// reports record it so measurements are comparable across machines and
// build configurations.
func KernelVariant() string { return kernelVariant }

// DotF32 exposes the dispatched float32 dot kernel for benchmarks and
// cross-build verification; production code reaches it through the cosine
// paths.
func DotF32(a, b []float32) float32 { return dotF32(a, b) }

// DotF32Scalar exposes the scalar reference kernel — the baseline bench
// probes compare the dispatched kernel against, and the oracle the
// property tests pin it to.
func DotF32Scalar(a, b []float32) float32 { return dotF32Scalar(a, b) }

// DotI8 exposes the dispatched int8 dot kernel (see DotF32).
func DotI8(a, b []int8) float32 { return dotI8(a, b) }

// DotI8Scalar exposes the int8 scalar reference kernel (see DotF32Scalar).
func DotI8Scalar(a, b []int8) float32 { return dotI8Scalar(a, b) }
