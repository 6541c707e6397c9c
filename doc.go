// Package perfscale reproduces "Perfect Strong Scaling Using No Additional
// Energy" (Demmel, Gearhart, Lipshitz, Schwartz — IPDPS 2013): energy and
// runtime models for communication-avoiding algorithms, the algorithms
// themselves running on a deterministic virtual-time message-passing
// simulator, and the paper's optimization and case-study experiments.
//
// The library lives under internal/:
//
//   - internal/machine    — machine parameter sets and presets (Tables I–II)
//   - internal/sim        — virtual-time distributed runtime and collectives
//   - internal/matrix     — dense local linear algebra kernels
//   - internal/bounds     — communication lower bounds (Eqs. 3–8, Fig. 3)
//   - internal/core       — the paper's T/E cost models (Eqs. 9–17)
//   - internal/opt        — Section V optimizers (M0, E*, budgets, co-design)
//   - internal/matmul     — Cannon, SUMMA, 3D and 2.5D matrix multiplication
//   - internal/strassen   — serial Strassen and CAPS-style parallel Strassen
//   - internal/lu         — blocked, 2D and 2.5D LU factorization
//   - internal/nbody      — direct n-body with data replication
//   - internal/fft        — serial and distributed cyclic-layout FFT
//   - internal/casestudy  — Section VI case study (Figs. 6–7, Tables I–II)
//   - internal/report     — tables, CSV and ASCII figure rendering
//
// Executables under cmd/ and the checked Example functions of internal/opt,
// internal/matmul, internal/nbody, internal/hetero and internal/obs exercise
// the API; cmd/reproduce regenerates every table and figure in the paper's
// evaluation into REPORT.md. See DESIGN.md for the full inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package perfscale
