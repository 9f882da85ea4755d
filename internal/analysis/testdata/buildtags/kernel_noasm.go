//go:build !amd64 || purego

package buildtags

const hasKernel = false

func mulKernel(x, y uint64) uint64 { panic("unreachable") }
