#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// The laneState fields body4 and body8 read and write (see laneState in
// reverse.go): body4 the first four entries of each, body8 all eight.
#define Q_OMEGA 0
#define Q_PEAK 64
#define Q_BAR 128
#define Q_PUSHES 192

// One in-lane: r[x·4 … x·4+3] += c·w for source x = src[i+k] and weight
// w = prob[i+k], c the four columns' (1−α)·δ in Y5. AX is i; X is free.
#define LANE(k, X) \
	MOVLQSX (k*4)(DI)(AX*4), X; \
	SHLQ    $5, X; \
	VBROADCASTSD (k*8)(R8)(AX*8), Y0; \
	VMULPD  Y5, Y0, Y0; \
	VADDPD  (R9)(X*1), Y0, Y0; \
	VMOVUPD Y0, (R9)(X*1)

// func body4(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64)
//
// Registers: SI &start[v−lo], DX v, CX the node past the range, DI src,
// R8 prob, R9 r, R10 p; Y15 ω, Y14 peak, Y13 bar, Y12 ε, Y11 α,
// Y10 1−α, Y9 the sign-clearing mask, Y8 1.0, Y7 the push counts.
TEXT ·body4(SB), NOSPLIT, $0-160
	MOVQ q+0(FP), R10
	MOVQ start_base+8(FP), SI
	MOVQ start_len+16(FP), CX
	MOVQ src_base+32(FP), DI
	MOVQ prob_base+56(FP), R8
	MOVQ r_base+80(FP), R9
	MOVQ lo+128(FP), DX
	VBROADCASTSD alpha+136(FP), Y11
	VBROADCASTSD beta+144(FP), Y10
	VBROADCASTSD eps+152(FP), Y12
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	VMOVUPD Q_OMEGA(R10), Y15
	VMOVUPD Q_PEAK(R10), Y14
	VMOVUPD Q_BAR(R10), Y13
	VMOVDQU Q_PUSHES(R10), Y7
	MOVQ p_base+104(FP), R10
	LEAQ -1(DX)(CX*1), CX
	CMPQ DX, CX
	JGE  done

node:
	MOVQ DX, BX
	SHLQ $5, BX
	VMOVUPD (R9)(BX*1), Y0          // rv
	VANDPD  Y9, Y0, Y1              // a = |rv|
	VCMPPD  $0x16, Y12, Y1, Y2      // push = !(a <= ε)
	VTESTPD Y2, Y2
	JZ      next                    // no lane pushes at v

	// if a > peak { peak = a; if peak > bar { ω = 1 } }, per lane
	VCMPPD    $0x1e, Y14, Y1, Y3    // a > peak
	VANDPD    Y2, Y3, Y3
	VBLENDVPD Y3, Y1, Y14, Y14
	VCMPPD    $0x1e, Y13, Y1, Y4    // a > bar
	VANDPD    Y3, Y4, Y4
	VBLENDVPD Y4, Y8, Y15, Y15

	VMULPD  Y15, Y0, Y5             // ω·rv
	VANDPD  Y2, Y5, Y5              // δ, +0 where the lane does not push
	VSUBPD  Y5, Y0, Y0              // r[v] − δ
	VMOVUPD Y0, (R9)(BX*1)
	VPSUBQ  Y2, Y7, Y7              // a pushing lane's mask is −1
	VMULPD  Y11, Y5, Y6             // α·δ
	VADDPD  (R10)(BX*1), Y6, Y6     // p[v] + α·δ
	VMOVUPD Y6, (R10)(BX*1)

	VMULPD Y10, Y5, Y5              // c = (1−α)·δ
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	CMPQ AX, BX
	JGE  next

lanes:
	LANE(0, R11)
	LANE(1, R12)
	LANE(2, R13)
	LANE(3, R14)
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  lanes

next:
	ADDQ $4, SI
	INCQ DX
	CMPQ DX, CX
	JLT  node

done:
	MOVQ q+0(FP), R10
	VMOVUPD Y15, Q_OMEGA(R10)
	VMOVUPD Y14, Q_PEAK(R10)
	VMOVDQU Y7, Q_PUSHES(R10)
	VZEROUPPER
	RET

// One in-lane of body8: r[x·8 … x·8+7] += c·w for source x = src[i+k]
// and weight w = prob[i+k], c the eight columns' (1−α)·δ in Z5. AX is
// i; X is free.
#define LANE8(k, X) \
	MOVLQSX (k*4)(DI)(AX*4), X; \
	SHLQ    $6, X; \
	VBROADCASTSD (k*8)(R8)(AX*8), Z0; \
	VMULPD  Z5, Z0, Z0; \
	VADDPD  (R9)(X*1), Z0, Z0; \
	VMOVUPD Z0, (R9)(X*1)

// func body8(q *laneState, start []int32, src []hin.NodeID, prob []float64, r, p []float64, lo int, alpha, beta, eps float64)
//
// body4 on eight columns in zmm registers, a lane's push decision held
// in opmask K1. Registers: SI &start[v−lo], DX v, CX the node past the
// range, DI src, R8 prob, R9 r, R10 p; Z15 ω, Z14 peak, Z13 bar, Z12 ε,
// Z11 α, Z10 1−α, Z9 the sign-clearing mask, Z8 1.0, Z7 the push
// counts, Z16 the integer 1.
TEXT ·body8(SB), NOSPLIT, $0-160
	MOVQ q+0(FP), R10
	MOVQ start_base+8(FP), SI
	MOVQ start_len+16(FP), CX
	MOVQ src_base+32(FP), DI
	MOVQ prob_base+56(FP), R8
	MOVQ r_base+80(FP), R9
	MOVQ lo+128(FP), DX
	VBROADCASTSD alpha+136(FP), Z11
	VBROADCASTSD beta+144(FP), Z10
	VBROADCASTSD eps+152(FP), Z12
	MOVQ $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z9
	MOVQ $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z8
	MOVQ $1, AX
	VPBROADCASTQ AX, Z16
	VMOVUPD Q_OMEGA(R10), Z15
	VMOVUPD Q_PEAK(R10), Z14
	VMOVUPD Q_BAR(R10), Z13
	VMOVDQU64 Q_PUSHES(R10), Z7
	MOVQ p_base+104(FP), R10
	LEAQ -1(DX)(CX*1), CX
	CMPQ DX, CX
	JGE  done8

node8:
	MOVQ DX, BX
	SHLQ $6, BX
	VMOVUPD (R9)(BX*1), Z0          // rv
	VPANDQ  Z9, Z0, Z1              // a = |rv|
	VCMPPD  $0x16, Z12, Z1, K1      // push = !(a <= ε)
	KORTESTW K1, K1
	JZ      next8                   // no lane pushes at v

	// if a > peak { peak = a; if peak > bar { ω = 1 } }, per lane
	VCMPPD  $0x1e, Z14, Z1, K1, K2  // push && a > peak
	VMOVAPD Z1, K2, Z14
	VCMPPD  $0x1e, Z13, Z1, K2, K3  // … && a > bar
	VMOVAPD Z8, K3, Z15

	VMULPD.Z Z15, Z0, K1, Z5        // δ = ω·rv, +0 where the lane does not push
	VSUBPD  Z5, Z0, Z0              // r[v] − δ
	VMOVUPD Z0, (R9)(BX*1)
	VPADDQ  Z16, Z7, K1, Z7         // one more push in a pushing lane
	VMULPD  Z11, Z5, Z6             // α·δ
	VADDPD  (R10)(BX*1), Z6, Z6     // p[v] + α·δ
	VMOVUPD Z6, (R10)(BX*1)

	VMULPD Z10, Z5, Z5              // c = (1−α)·δ
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	CMPQ AX, BX
	JGE  next8

lanes8:
	LANE8(0, R11)
	LANE8(1, R12)
	LANE8(2, R13)
	LANE8(3, R14)
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  lanes8

next8:
	ADDQ $4, SI
	INCQ DX
	CMPQ DX, CX
	JLT  node8

done8:
	MOVQ q+0(FP), R10
	VMOVUPD Z15, Q_OMEGA(R10)
	VMOVUPD Z14, Q_PEAK(R10)
	VMOVDQU64 Z7, Q_PUSHES(R10)
	VZEROUPPER
	RET
