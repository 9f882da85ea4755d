//go:build !zkvet_fixture_tag

package buildtags

const tagged = 1
