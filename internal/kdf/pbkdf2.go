// Package kdf implements the PBKDF2 password-based key derivation function
// from RFC 2898 / RFC 8018 using HMAC as the pseudo-random function.
//
// The MyProxy repository uses it to derive the symmetric keys that seal
// stored credentials with the user-chosen pass phrase (paper §5.1: "the
// repository encrypts the credentials that it holds with the pass phrase
// provided by the user"). Every GET pays one derivation, so the loop is
// written to run at the hash's compression floor: see key.
package kdf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// blockSize is the message block of both supported hashes.
const blockSize = 64

// hashSpec describes a 64-byte-block hash whose standard-library state
// marshals as magic ‖ chaining value (big-endian words) ‖ 64-byte buffer
// ‖ big-endian 64-bit length. SHA-256 and SHA-1 both do.
type hashSpec struct {
	name  string
	new   func() hash.Hash
	magic string // marshaled-state prefix
	size  int    // output length hLen = chaining-value length
}

var (
	sha256Spec = hashSpec{"sha256", sha256.New, "sha\x03", sha256.Size}
	sha1Spec   = hashSpec{"sha1", sha1.New, "sha\x01", sha1.Size}
)

// stateHash is the part of a standard-library digest the loop drives.
// AppendBinary is Go 1.24 (encoding.BinaryAppender); declaring the
// interface here rather than naming the stdlib one keeps the module's go
// line at 1.22, which perfbench's module (go 1.22, requiring this one)
// needs. go.mod's toolchain line selects Go 1.24, and go124_guard.go
// makes an older toolchain fail to build this package.
type stateHash interface {
	hash.Hash
	AppendBinary(b []byte) ([]byte, error)
	UnmarshalBinary(b []byte) error
}

// SHA256Key derives a key of keyLen bytes with PBKDF2-HMAC-SHA256, the
// repository default, per RFC 8018 §5.2.
//
// The salt should be random and at least 8 bytes; iter should be large
// enough that a brute-force attack against a dumped repository is slow
// (the repository defaults to 64k iterations, see pki.DefaultKDFIterations).
//
// The result is key material: callers must wipe it (pki.WipeBytes) once the
// derived key has been used.
//
//myproxy:secret
func SHA256Key(password, salt []byte, iter, keyLen int) []byte {
	return key(sha256Spec, password, salt, iter, keyLen)
}

// SHA1Key derives a key with PBKDF2-HMAC-SHA1. It exists for compatibility
// testing against the RFC 6070 vectors; new code should use SHA256Key.
//
//myproxy:secret
func SHA1Key(password, salt []byte, iter, keyLen int) []byte {
	return key(sha1Spec, password, salt, iter, keyLen)
}

// key is PBKDF2-HMAC over the hash s.
//
// HMAC(K, m) = H(opad ‖ H(ipad ‖ m)), where ipad and opad are each one
// 64-byte block, so the hash state after either pad block is fixed for
// the whole derivation (RFC 2104 §4): it is computed once and saved. From
// U_2 on, and for the outer hash of U_1, the message after the pad block
// is a single hLen-byte hash output, which with its padding
// (0x80, zeros, 64-bit bit length of the 64+hLen bytes) is exactly one
// block. So each iteration is two compressions, and each compression is:
// restore a saved pad state, write the pre-padded block, and read the new
// chaining value, which is the finished hash, back out of the marshaled
// state.
//
// The saved pad states are key-equivalent (FIPS 198-1 §6), as are the U
// and T blocks, so all of them live in one scratch buffer cleared before
// return.
//
//myproxy:secret
func key(s hashSpec, password, salt []byte, iter, keyLen int) []byte {
	if iter < 1 {
		panic("kdf: iteration count must be >= 1")
	}
	if keyLen < 0 {
		panic("kdf: negative key length")
	}
	d, ok := s.new().(stateHash)
	if !ok {
		panic("kdf: " + s.name + " state cannot be saved and restored; build with Go 1.24 or later")
	}
	hLen := s.size
	n := len(s.magic) + hLen + blockSize + 8 // marshaled state length

	scratch := make([]byte, 3*n+2*blockSize+hLen+4)
	defer clear(scratch)
	defer d.Reset() // drop the last chaining value
	rest := scratch
	take := func(k int) []byte {
		b := rest[:k:k]
		rest = rest[k:]
		return b
	}
	inner, outer, readBack := take(n), take(n), take(n)
	msg, pad, t, ctr := take(blockSize), take(blockSize), take(hLen), take(4)

	// RFC 2104: a key longer than the block is hashed first.
	if len(password) > blockSize {
		d.Write(password)
		d.Sum(pad[:0])
		d.Reset()
	} else {
		copy(pad, password)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	d.Write(pad)
	s.save(d, inner)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	d.Reset()
	d.Write(pad)
	s.save(d, outer)

	// Restoring a state save has checked cannot fail: UnmarshalBinary
	// rejects only a wrong magic or length.
	msg[hLen] = 0x80
	binary.BigEndian.PutUint64(msg[blockSize-8:], uint64(blockSize+hLen)*8)
	off := len(s.magic)
	dk := make([]byte, keyLen)
	for i := 1; i <= (keyLen+hLen-1)/hLen; i++ {
		// The inner message of U_1 is salt ‖ INT_32_BE(i), of any length,
		// so it takes the ordinary padded Sum.
		d.UnmarshalBinary(inner)
		d.Write(salt)
		binary.BigEndian.PutUint32(ctr, uint32(i))
		d.Write(ctr)
		d.Sum(msg[:0])
		clear(t)
		// U_j = PRF(password, U_{j-1}); T_i = U_1 xor ... xor U_iter.
		for j := 1; ; j++ {
			d.UnmarshalBinary(outer) // msg: inner hash -> U_j
			d.Write(msg)
			st, _ := d.AppendBinary(readBack[:0])
			copy(msg, st[off:off+hLen])
			xorWords(t, msg[:hLen])
			if j == iter {
				break
			}
			d.UnmarshalBinary(inner) // msg: U_j -> inner hash of U_j+1
			d.Write(msg)
			st, _ = d.AppendBinary(readBack[:0])
			copy(msg, st[off:off+hLen])
		}
		copy(dk[(i-1)*hLen:], t)
	}
	return dk
}

// save marshals d's state into dst, failing closed unless the layout is
// the one the loop reads: the right magic, exactly dst's length, and the
// 64-byte pad block counted in the trailing length. Go promises that
// saved states stay decodable, not that this layout never changes.
func (s hashSpec) save(d stateHash, dst []byte) {
	st, err := d.AppendBinary(dst[:0])
	if err != nil || len(st) != len(dst) || string(st[:len(s.magic)]) != s.magic ||
		binary.BigEndian.Uint64(st[len(st)-8:]) != blockSize {
		panic("kdf: unexpected " + s.name + " state layout; refusing to derive keys")
	}
}

// xorWords sets t ^= u eight bytes at a time; len(t) is 32 (SHA-256) or
// 20 (SHA-1, which leaves a 4-byte tail).
func xorWords(t, u []byte) {
	k := 0
	for ; k+8 <= len(t); k += 8 {
		binary.LittleEndian.PutUint64(t[k:], binary.LittleEndian.Uint64(t[k:])^binary.LittleEndian.Uint64(u[k:]))
	}
	if k < len(t) {
		binary.LittleEndian.PutUint32(t[k:], binary.LittleEndian.Uint32(t[k:])^binary.LittleEndian.Uint32(u[k:]))
	}
}
