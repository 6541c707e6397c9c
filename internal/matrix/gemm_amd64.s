//go:build amd64 && !purego

#include "textflag.h"

// One row of the tile for the current k, with b[k][0:2] in X8, b[k][2:4]
// in X9 and every bit but the sign set in R13. The zero test is on the bits
// of a[i][k]: masking the sign off leaves zero for +0 and −0 only, so −0
// skips as `== 0` does and NaN does not. Otherwise broadcast a[i][k], round
// the two products (MULPD), then add them (ADDPD): no FMA, k order
// untouched.
#define ROW(A, LO, HI, SKIP) \
	TESTQ    R13, A;     \
	JZ       SKIP;       \
	MOVSD    A, X10;     \
	UNPCKLPD X10, X10;   \
	MOVAPS   X10, X11;   \
	MULPD    X8, X10;    \
	MULPD    X9, X11;    \
	ADDPD    X10, LO;    \
	ADDPD    X11, HI;    \
SKIP:

// func gemmTile4x4(c, a, b *float64, k, ldc, lda, ldb int)
//
// c[0:4, 0:4] += a[0:4, 0:k]·b[0:k, 0:4], row strides in elements. The
// tile of C lives in X0–X7 (row r in X(2r), X(2r+1)) for the whole k loop.
// SSE2 only, the amd64 baseline: nothing to probe, no VZEROUPPER.
TEXT ·gemmTile4x4(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ ldc+32(FP), R8
	MOVQ lda+40(FP), R9
	MOVQ ldb+48(FP), R10
	SHLQ $3, R8               // strides in bytes
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R12      // 3·ldc
	LEAQ (R9)(R9*2), R11      // 3·lda
	MOVQ $0x7fffffffffffffff, R13 // ROW's zero-test mask

	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (DI)(R8*1), X2
	MOVUPS 16(DI)(R8*1), X3
	MOVUPS (DI)(R8*2), X4
	MOVUPS 16(DI)(R8*2), X5
	MOVUPS (DI)(R12*1), X6
	MOVUPS 16(DI)(R12*1), X7

loop:
	MOVUPS (BX), X8
	MOVUPS 16(BX), X9
	ROW((SI), X0, X1, row1)
	ROW((SI)(R9*1), X2, X3, row2)
	ROW((SI)(R9*2), X4, X5, row3)
	ROW((SI)(R11*1), X6, X7, next)
	ADDQ   $8, SI
	ADDQ   R10, BX
	DECQ   CX
	JNZ    loop

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(R8*1)
	MOVUPS X3, 16(DI)(R8*1)
	MOVUPS X4, (DI)(R8*2)
	MOVUPS X5, 16(DI)(R8*2)
	MOVUPS X6, (DI)(R12*1)
	MOVUPS X7, 16(DI)(R12*1)
	RET
