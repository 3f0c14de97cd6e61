//go:build !race

package kdf

import "testing"

// The loop allocates only at set-up: the per-iteration cost is
// compressions, not garbage. Not under -race: the race detector's
// instrumentation makes sha256's AppendBinary allocate.
func TestSHA256KeyAllocsIndependentOfIter(t *testing.T) {
	pw, salt := []byte("pw"), []byte("salt")
	one := testing.AllocsPerRun(20, func() { SHA256Key(pw, salt, 1, 32) })
	many := testing.AllocsPerRun(2, func() { SHA256Key(pw, salt, 65536, 32) })
	if one != many {
		t.Fatalf("allocs/op: %v at iter=1, %v at iter=65536", one, many)
	}
}
