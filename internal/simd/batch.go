//go:build !purego

package simd

import "unsafe"

// Batched unsafe kernels. Each mirrors its ...Scalar twin exactly — same
// element order, same sequential fold chains — but works through raw
// pointers so the compiler emits no bounds checks in the inner loop, and
// unrolls the gather-heavy passes 8 wide so eight independent loads are in
// flight per iteration. The caller contract (digits ≤ 255, cursors in
// bounds) is inherited from scalar.go; these kernels do not re-check it.

const Enabled = true

// Or is the batched OrScalar.
func Or[K Key](keys []K) K {
	n := len(keys)
	if n == 0 {
		return 0
	}
	var zk K
	ksz := unsafe.Sizeof(zk)
	kp := unsafe.Pointer(&keys[0])
	var o0, o1, o2, o3, o4, o5, o6, o7 K
	i := 0
	for ; i+8 <= n; i += 8 {
		o0 |= *(*K)(unsafe.Add(kp, uintptr(i)*ksz))
		o1 |= *(*K)(unsafe.Add(kp, uintptr(i+1)*ksz))
		o2 |= *(*K)(unsafe.Add(kp, uintptr(i+2)*ksz))
		o3 |= *(*K)(unsafe.Add(kp, uintptr(i+3)*ksz))
		o4 |= *(*K)(unsafe.Add(kp, uintptr(i+4)*ksz))
		o5 |= *(*K)(unsafe.Add(kp, uintptr(i+5)*ksz))
		o6 |= *(*K)(unsafe.Add(kp, uintptr(i+6)*ksz))
		o7 |= *(*K)(unsafe.Add(kp, uintptr(i+7)*ksz))
	}
	or := o0 | o1 | o2 | o3 | o4 | o5 | o6 | o7
	for ; i < n; i++ {
		or |= keys[i]
	}
	return or
}

// Hist is the batched HistScalar.
func Hist[K Key](keys []K, shift uint, mask uint32, count *[256]int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	var zk K
	ksz := unsafe.Sizeof(zk)
	m := K(mask)
	kp := unsafe.Pointer(&keys[0])
	cp := unsafe.Pointer(&count[0])
	i := 0
	for ; i+8 <= n; i += 8 {
		k0 := *(*K)(unsafe.Add(kp, uintptr(i)*ksz))
		k1 := *(*K)(unsafe.Add(kp, uintptr(i+1)*ksz))
		k2 := *(*K)(unsafe.Add(kp, uintptr(i+2)*ksz))
		k3 := *(*K)(unsafe.Add(kp, uintptr(i+3)*ksz))
		k4 := *(*K)(unsafe.Add(kp, uintptr(i+4)*ksz))
		k5 := *(*K)(unsafe.Add(kp, uintptr(i+5)*ksz))
		k6 := *(*K)(unsafe.Add(kp, uintptr(i+6)*ksz))
		k7 := *(*K)(unsafe.Add(kp, uintptr(i+7)*ksz))
		*(*int64)(unsafe.Add(cp, uintptr((k0>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k1>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k2>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k3>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k4>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k5>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k6>>shift)&m)*8))++
		*(*int64)(unsafe.Add(cp, uintptr((k7>>shift)&m)*8))++
	}
	for ; i < n; i++ {
		count[(keys[i]>>shift)&m]++
	}
}

// ScatterKV is the batched ScatterKVScalar.
func ScatterKV[K Key, V any](srcK []K, srcV []V, dstK []K, dstV []V, shift uint, mask uint32, cursor *[256]int64) {
	n := len(srcK)
	if n == 0 {
		return
	}
	var zk K
	var zv V
	ksz, vsz := unsafe.Sizeof(zk), unsafe.Sizeof(zv)
	m := K(mask)
	skp := unsafe.Pointer(&srcK[0])
	svp := unsafe.Pointer(&srcV[0])
	dkp := unsafe.Pointer(&dstK[0])
	dvp := unsafe.Pointer(&dstV[0])
	cp := unsafe.Pointer(&cursor[0])
	for i := 0; i < n; i++ {
		k := *(*K)(unsafe.Add(skp, uintptr(i)*ksz))
		cb := (*int64)(unsafe.Add(cp, uintptr((k>>shift)&m)*8))
		c := uintptr(*cb)
		*(*K)(unsafe.Add(dkp, c*ksz)) = k
		*(*V)(unsafe.Add(dvp, c*vsz)) = *(*V)(unsafe.Add(svp, uintptr(i)*vsz))
		*cb = int64(c + 1)
	}
}

// ScatterK is the batched ScatterKScalar.
func ScatterK(srcK []uint32, dstK []uint32, shift uint, mask uint32, cursor *[256]int64) {
	n := len(srcK)
	if n == 0 {
		return
	}
	skp := unsafe.Pointer(&srcK[0])
	dkp := unsafe.Pointer(&dstK[0])
	cp := unsafe.Pointer(&cursor[0])
	for i := 0; i < n; i++ {
		k := *(*uint32)(unsafe.Add(skp, uintptr(i)*4))
		cb := (*int64)(unsafe.Add(cp, uintptr((k>>shift)&mask)*8))
		c := uintptr(*cb)
		*(*uint32)(unsafe.Add(dkp, c*4)) = k
		*cb = int64(c + 1)
	}
}

// AccumKV is the batched AccumKVScalar. The per-slot additions stay a single
// sequential chain in arrival order — no reassociation — so the fold is
// bit-identical to the scalar oracle.
func AccumKV[K Key, V Value](keys []K, vals []V, mask uint32, acc *[256]V) {
	n := len(keys)
	if n == 0 {
		return
	}
	var zk K
	var zv V
	ksz, vsz := unsafe.Sizeof(zk), unsafe.Sizeof(zv)
	m := K(mask)
	kp := unsafe.Pointer(&keys[0])
	vp := unsafe.Pointer(&vals[0])
	ap := unsafe.Pointer(&acc[0])
	for i := 0; i < n; i++ {
		k := *(*K)(unsafe.Add(kp, uintptr(i)*ksz))
		*(*V)(unsafe.Add(ap, uintptr(k&m)*vsz)) += *(*V)(unsafe.Add(vp, uintptr(i)*vsz))
	}
}

// ExpandKV is the batched ExpandKVScalar.
func ExpandKV[K Key, V Value](dstK []K, dstV []V, localRow K, cols []int32, bVals []V, av V) {
	n := len(dstK)
	if n == 0 {
		return
	}
	_ = cols[n-1]
	_ = bVals[n-1]
	var zk K
	var zv V
	ksz, vsz := unsafe.Sizeof(zk), unsafe.Sizeof(zv)
	dkp := unsafe.Pointer(&dstK[0])
	dvp := unsafe.Pointer(&dstV[0])
	colp := unsafe.Pointer(&cols[0])
	bvp := unsafe.Pointer(&bVals[0])
	for i := 0; i < n; i++ {
		*(*K)(unsafe.Add(dkp, uintptr(i)*ksz)) = localRow | K(uint32(*(*int32)(unsafe.Add(colp, uintptr(i)*4))))
		*(*V)(unsafe.Add(dvp, uintptr(i)*vsz)) = av * *(*V)(unsafe.Add(bvp, uintptr(i)*vsz))
	}
}

// ExpandK is the batched ExpandKScalar.
func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	n := len(dstK)
	if n == 0 {
		return
	}
	_ = cols[n-1]
	dkp := unsafe.Pointer(&dstK[0])
	colp := unsafe.Pointer(&cols[0])
	for i := 0; i < n; i++ {
		*(*uint32)(unsafe.Add(dkp, uintptr(i)*4)) = localRow | uint32(*(*int32)(unsafe.Add(colp, uintptr(i)*4)))
	}
}
