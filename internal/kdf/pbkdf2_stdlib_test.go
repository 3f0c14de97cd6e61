//go:build go1.24

package kdf

import (
	"bytes"
	"crypto/pbkdf2"
	"crypto/sha1"
	"crypto/sha256"
	"hash"
	"testing"
)

// TestDifferentialStdlib compares the loop with crypto/pbkdf2 (Go 1.24).
// Each sweep walks one input over its whole range under every iteration
// count: password lengths cross the 64-byte key-hashing rule, and key
// lengths cover multi-block output for both hashes.
func TestDifferentialStdlib(t *testing.T) {
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	type input struct{ pwLen, saltLen, keyLen int }
	var inputs []input
	for pwLen := 0; pwLen <= 130; pwLen++ {
		inputs = append(inputs, input{pwLen, 16, 32})
	}
	for saltLen := 0; saltLen <= 80; saltLen++ {
		inputs = append(inputs, input{11, saltLen, 20})
	}
	for keyLen := 1; keyLen <= 100; keyLen++ {
		inputs = append(inputs, input{65, 8, keyLen})
	}
	hashes := []struct {
		new  func() hash.Hash
		ours func(password, salt []byte, iter, keyLen int) []byte
	}{{sha256.New, SHA256Key}, {sha1.New, SHA1Key}}
	for _, in := range inputs {
		pw, salt := buf[:in.pwLen], buf[128:128+in.saltLen]
		for _, iter := range []int{1, 2, 3, 1000} {
			for _, h := range hashes {
				//myproxy:allow secretescape a fixed byte pattern, not a pass phrase; crypto/pbkdf2 takes the password as a string
				want, err := pbkdf2.Key(h.new, string(pw), salt, iter, in.keyLen)
				if err != nil {
					t.Fatal(err)
				}
				if got := h.ours(pw, salt, iter, in.keyLen); !bytes.Equal(got, want) {
					t.Errorf("%T %+v iter=%d: got %x, want %x", h.new(), in, iter, got, want)
				}
			}
		}
	}
}

// BenchmarkStdlibSHA256Key64k is BenchmarkSHA256Key64k through
// crypto/pbkdf2, for comparison.
func BenchmarkStdlibSHA256Key64k(b *testing.B) {
	salt := []byte("0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pbkdf2.Key(sha256.New, "correct horse battery staple", salt, 65536, 32)
	}
}
