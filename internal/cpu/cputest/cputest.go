// Package cputest runs a test once per body of the eight-lane field
// kernels (fp.Lanes, ff.Lanes) that the build and the CPU have, so the
// portable body's control flow is tested on every host, IFMA hosts
// included.
package cputest
