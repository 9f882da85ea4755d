// Package cpu is the one CPU-feature probe behind the field kernels: ADX
// selects internal/fp's and internal/ff's MULX/ADCX/ADOX multiplications,
// IFMA their eight-lane AVX-512 IFMA kernels. Both are read once at
// package init, before any importer's initialisation runs, and are the
// constant false off amd64 and under -tags purego, so the dispatch
// branches compile away there. There is no option, flag or environment
// variable: every kernel computes the same field elements bit for bit.
package cpu
