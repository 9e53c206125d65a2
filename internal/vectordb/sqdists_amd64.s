#include "textflag.h"

// func sqDists8AVX2(dst, v, centsT []float32, k int), len(v) > 0
// Blocks of 8 centroids run four at a time, so four chains overlap.
TEXT ·sqDists8AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	MOVQ centsT_base+48(FP), DX
	MOVQ k+72(FP), R8
	SHLQ $2, R8 // row stride in bytes
	SHRQ $3, BX // 8-centroid blocks left

quad:
	CMPQ BX, $4
	JB   single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ DX, R9   // the block's row for dimension d
	XORQ R10, R10 // d
quadDim:
	VBROADCASTSS (SI)(R10*4), Y4
	VSUBPS (R9), Y4, Y5
	VSUBPS 32(R9), Y4, Y6
	VSUBPS 64(R9), Y4, Y7
	VSUBPS 96(R9), Y4, Y8
	VMULPS Y5, Y5, Y5
	VMULPS Y6, Y6, Y6
	VMULPS Y7, Y7, Y7
	VMULPS Y8, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ R8, R9
	INCQ R10
	CMPQ R10, CX
	JB   quadDim
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $4, BX
	JMP  quad

single:
	TESTQ BX, BX
	JE    done
	VXORPS Y0, Y0, Y0
	MOVQ DX, R9
	XORQ R10, R10
singleDim:
	VBROADCASTSS (SI)(R10*4), Y4
	VSUBPS (R9), Y4, Y5
	VMULPS Y5, Y5, Y5
	VADDPS Y5, Y0, Y0
	ADDQ R8, R9
	INCQ R10
	CMPQ R10, CX
	JB   singleDim
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ BX
	JMP  single
done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
// CPUID leaf 7 exists, leaf 1 sets OSXSAVE and AVX (ECX bits 27 and 28),
// XCR0 sets XMM and YMM state (bits 1 and 2), and leaf 7 sets AVX2 (EBX
// bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET
