//go:build !go1.24

package kdf

// The loop saves and restores digest states with AppendBinary, which the
// standard-library hashes gain in Go 1.24. Stop an older toolchain here,
// at build time, rather than at the first derivation.
var _ = kdfNeedsGo1_24_forHashAppendBinary
