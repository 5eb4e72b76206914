//go:build amd64

#include "textflag.h"

// func nearestTileAVX2(center *float64, dim int, col *float64, stride, m int, cidx float64, dist, idxf *float64)
//
// One tile of m points (m > 0, multiple of 4) against one center.
// Coordinate d of tile point jj lives at col[d*stride + jj]. For each jj:
//
//	d2 = Dist2(point jj, center)        // 4-lane bit pattern, no FMA
//	if d2 < dist[jj] { dist[jj] = d2; idxf[jj] = cidx }
//
// Four points ride in one ymm register, one SIMD slot each, so every
// point's lane sums accumulate dimensions in exactly Dist2's scalar order:
// lane d%4 for the unrolled body, lane 0 for the dim%4 tail, combined as
// (s0+s1)+(s2+s3). VSUBPD/VMULPD/VADDPD round identically to the scalar
// ops; FMA is deliberately not used (it rounds once where mul-then-add
// rounds twice).
TEXT ·nearestTileAVX2(SB), NOSPLIT, $0-64
	MOVQ center+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ col+16(FP), BX
	MOVQ stride+24(FP), CX
	MOVQ m+32(FP), DI
	VBROADCASTSD cidx+40(FP), Y15
	MOVQ dist+48(FP), R8
	MOVQ idxf+56(FP), R9

	SHLQ $3, CX              // stride in bytes
	LEAQ (CX)(CX*2), R14     // 3*stride in bytes
	XORQ R10, R10            // byte offset of the current 4-point group

outer:
	// Lane accumulators for 4 points (slot = point, register = lane).
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (BX)(R10*1), R11    // &col[jj]
	MOVQ SI, R12             // center cursor
	MOVQ DX, R13             // dimensions remaining

d4loop:
	CMPQ R13, $4
	JLT  dtail

	VBROADCASTSD (R12), Y4
	VMOVUPD      (R11), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y0, Y0

	VBROADCASTSD 8(R12), Y4
	VMOVUPD      (R11)(CX*1), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y1, Y1

	VBROADCASTSD 16(R12), Y4
	VMOVUPD      (R11)(CX*2), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y2, Y2

	VBROADCASTSD 24(R12), Y4
	VMOVUPD      (R11)(R14*1), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y3, Y3

	ADDQ $32, R12
	LEAQ (R11)(CX*4), R11
	SUBQ $4, R13
	JMP  d4loop

dtail:
	TESTQ R13, R13
	JZ    combine

tailloop:
	// Dist2's tail loop: remaining dimensions accumulate into lane 0.
	VBROADCASTSD (R12), Y4
	VMOVUPD      (R11), Y5
	VSUBPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R12
	ADDQ         CX, R11
	DECQ         R13
	JNZ          tailloop

combine:
	VADDPD Y1, Y0, Y0        // s0+s1
	VADDPD Y3, Y2, Y2        // s2+s3
	VADDPD Y2, Y0, Y0        // d2 = (s0+s1)+(s2+s3)

	// Fold into the running best: strict less-than (predicate 1, LT_OS)
	// keeps the lowest center index on ties and never accepts NaN/Inf
	// over Inf, matching NearestIndex.
	VMOVUPD   (R8)(R10*1), Y6
	VCMPPD    $1, Y6, Y0, Y7
	VBLENDVPD Y7, Y0, Y6, Y6
	VMOVUPD   Y6, (R8)(R10*1)
	VMOVUPD   (R9)(R10*1), Y8
	VBLENDVPD Y7, Y15, Y8, Y8
	VMOVUPD   Y8, (R9)(R10*1)

	ADDQ $32, R10
	SUBQ $4, DI
	JNZ  outer

	VZEROUPPER
	RET

// func nearestGroupsAVX512(cblk *float64, dim, blocks int, col *float64, stride, m int, dist *float64, idx *int32)
//
// m points (m > 0, multiple of 8) against blocks·4 centers. Coordinate d
// of point jj lives at col[d*stride + jj]; coordinate d of center 4b+c at
// cblk[(b*dim + d)*4 + c], so the four centers of a block sit in one
// 32-byte row per dimension. For each 8-point group the running best
// distance (Z16, seeded from dist, which the caller fills with +Inf) and
// index (Z17, as float64, seeded with -1) stay in registers while every
// block streams past:
//
//	for each block of 4 centers:
//	    d2[c] = Dist2(point, center 4b+c)   // 4 centers × 4 lanes, no FMA
//	    for c in 0..3: if d2[c] < best { best = d2[c]; bestIdx = 4b+c }
//
// Each (point, center) pair owns one slot of each of its four lane
// accumulators, so its sums run in Dist2's scalar order: lane d%4 for the
// unrolled body, lane 0 for the dim%4 tail, combined as (s0+s1)+(s2+s3).
// VSUBPD/VMULPD/VADDPD round as the scalar ops do, and FMA is not used.
// The fold runs in center order with the strict less-than of
// NearestIndex, so the lowest index survives ties and a NaN or +Inf
// distance never replaces the +Inf sentinel. At the end of the group the
// best distances are stored to dist and the indexes, converted to int32,
// to idx.

// DIST4(col, off, a0, a1, a2, a3): one dimension of the group against the
// block's four centers. Load the points' coordinate from col; for center
// c, subtract its coordinate (broadcast from off+8c(R12)), square, and
// add into accumulator ac.
#define DIST4(col, off, a0, a1, a2, a3) \
	VMOVUPD     col, Z18; \
	VSUBPD.BCST off(R12), Z18, Z19; \
	VSUBPD.BCST off+8(R12), Z18, Z20; \
	VSUBPD.BCST off+16(R12), Z18, Z21; \
	VSUBPD.BCST off+24(R12), Z18, Z22; \
	VMULPD      Z19, Z19, Z19; \
	VMULPD      Z20, Z20, Z20; \
	VMULPD      Z21, Z21, Z21; \
	VMULPD      Z22, Z22, Z22; \
	VADDPD      Z19, a0, a0; \
	VADDPD      Z20, a1, a1; \
	VADDPD      Z21, a2, a2; \
	VADDPD      Z22, a3, a3

// COMBINE(s0, s1, s2, s3): d2 = (s0+s1)+(s2+s3) into s0.
#define COMBINE(s0, s1, s2, s3) \
	VADDPD s1, s0, s0; \
	VADDPD s3, s2, s2; \
	VADDPD s2, s0, s0

// FOLD(d2): if d2 < best (predicate 1, LT_OS, into an opmask), take d2 as
// the best distance and the current center index (Z29) as the best
// index; then step the index to the next center.
#define FOLD(d2) \
	VCMPPD  $1, Z16, d2, K1; \
	VMOVAPD d2, K1, Z16; \
	VMOVAPD Z29, K1, Z17; \
	VADDPD  Z30, Z29, Z29

// ZERO4(a, b, c, d) clears four accumulators.
#define ZERO4(a, b, c, d) \
	VPXORQ a, a, a; \
	VPXORQ b, b, b; \
	VPXORQ c, c, c; \
	VPXORQ d, d, d

TEXT ·nearestGroupsAVX512(SB), NOSPLIT, $0-64
	MOVQ cblk+0(FP), SI
	MOVQ dim+8(FP), DX
	MOVQ col+24(FP), BX
	MOVQ stride+32(FP), CX
	MOVQ m+40(FP), DI
	MOVQ dist+48(FP), R8
	MOVQ idx+56(FP), R9

	SHLQ $3, CX              // stride in bytes
	LEAQ (CX)(CX*2), R14     // 3*stride in bytes
	MOVQ $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z30     // 1.0: the index step between centers
	MOVQ $0xbff0000000000000, AX
	VPBROADCASTQ AX, Z31     // -1.0: no center yet
	XORQ R10, R10            // index of the group's first point

group:
	VMOVUPD (R8)(R10*8), Z16 // best distance
	VMOVAPD Z31, Z17         // best index
	VPXORQ  Z29, Z29, Z29    // index of the block's first center
	MOVQ    SI, R12          // block cursor
	MOVQ    blocks+16(FP), AX

block:
	// Lane accumulators: center c, lane l in Z(4c+l).
	ZERO4(Z0, Z1, Z2, Z3)
	ZERO4(Z4, Z5, Z6, Z7)
	ZERO4(Z8, Z9, Z10, Z11)
	ZERO4(Z12, Z13, Z14, Z15)
	LEAQ (BX)(R10*8), R11    // &col[jj]
	MOVQ DX, R13             // dimensions remaining

d4loop:
	CMPQ R13, $4
	JLT  dtail
	// Dimensions d..d+3 into lanes 0..3 of each center.
	DIST4((R11), 0, Z0, Z4, Z8, Z12)
	DIST4((R11)(CX*1), 32, Z1, Z5, Z9, Z13)
	DIST4((R11)(CX*2), 64, Z2, Z6, Z10, Z14)
	DIST4((R11)(R14*1), 96, Z3, Z7, Z11, Z15)
	ADDQ $128, R12
	LEAQ (R11)(CX*4), R11
	SUBQ $4, R13
	JMP  d4loop

dtail:
	TESTQ R13, R13
	JZ    combine

tailloop:
	// Dist2's tail loop: remaining dimensions accumulate into lane 0.
	DIST4((R11), 0, Z0, Z4, Z8, Z12)
	ADDQ $32, R12
	ADDQ CX, R11
	DECQ R13
	JNZ  tailloop

combine:
	COMBINE(Z0, Z1, Z2, Z3)
	COMBINE(Z4, Z5, Z6, Z7)
	COMBINE(Z8, Z9, Z10, Z11)
	COMBINE(Z12, Z13, Z14, Z15)
	// Fold the four distances into the running best, in center order.
	FOLD(Z0)
	FOLD(Z4)
	FOLD(Z8)
	FOLD(Z12)

	DECQ AX
	JNZ  block

	VMOVUPD    Z16, (R8)(R10*8)
	VCVTTPD2DQ Z17, Y0
	VMOVDQU    Y0, (R9)(R10*4)
	ADDQ       $8, R10
	CMPQ       R10, DI
	JLT        group

	VZEROUPPER
	RET

// func foldRowsAVX512(sums *float64, counts *int64, rows *float64, dim int, idx *int32, n int)
//
// For j in 0..n-1, in order: c = idx[j]; counts[c]++; sums[c*dim+i] +=
// rows[j*dim+i] for every i. Each coordinate is one IEEE addition with
// the running sum as the first operand, as the scalar a[i] += b[i]
// compiles, so the sums (NaN payloads included) match a per-row
// AddInPlace bit for bit. Full 8-coordinate chunks go through zmm; the
// dim%8 tail uses an opmask, whose masked-off lanes are neither read nor
// written. The caller has checked every index.
TEXT ·foldRowsAVX512(SB), NOSPLIT, $0-48
	MOVQ sums+0(FP), SI
	MOVQ counts+8(FP), DI
	MOVQ rows+16(FP), BX
	MOVQ dim+24(FP), DX
	MOVQ idx+32(FP), R8
	MOVQ n+40(FP), R9
	TESTQ R9, R9
	JZ    folddone

	MOVQ DX, CX
	ANDQ $7, CX              // tail coordinates
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1             // the low dim%8 lanes
	MOVQ DX, R12
	SHLQ $3, R12             // row bytes
	MOVQ DX, R13
	SHRQ $3, R13             // full chunks per row

foldrow:
	MOVLQSX (R8), AX
	INCQ    (DI)(AX*8)
	IMULQ   R12, AX
	LEAQ    (SI)(AX*1), R10  // &sums[c*dim]
	MOVQ    R13, R11
	TESTQ   R11, R11
	JZ      foldtail

foldchunk:
	VMOVUPD (R10), Z0
	VADDPD  (BX), Z0, Z0
	VMOVUPD Z0, (R10)
	ADDQ    $64, R10
	ADDQ    $64, BX
	DECQ    R11
	JNZ     foldchunk

foldtail:
	TESTQ CX, CX
	JZ    foldnext
	VMOVUPD.Z (R10), K1, Z0
	VMOVUPD.Z (BX), K1, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (R10)
	LEAQ      (BX)(CX*8), BX

foldnext:
	ADDQ $4, R8
	DECQ R9
	JNZ  foldrow

folddone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
