package pki

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"io"

	"repro/internal/kdf"
)

// Pass-phrase sealed key container. The paper's deployment used SSLeay
// encrypted-PEM private keys; we use an authenticated construction with the
// same operational shape: a key at rest is unusable without the pass phrase
// (paper §2.1 "storing it in an encrypted file with a decryption pass
// phrase known only to the owner", §5.1 repository-side encryption).
//
// Container layout (inside a PEM block of type ENCRYPTED GRID KEY):
//
//	magic   [8]byte  "GRIDKEY1"
//	iter    uint32   PBKDF2 iteration count (big endian)
//	salt    [16]byte
//	nonce   [12]byte
//	sealed  []byte   AES-256-GCM(ciphertext||tag) of the key DER
//	                 (PKCS#1 for RSA, PKCS#8 otherwise)
const (
	sealMagic        = "GRIDKEY1"
	sealSaltLen      = 16
	sealKeyLen       = 32
	pemTypeEncrypted = "ENCRYPTED GRID KEY"

	// DefaultKDFIterations balances unseal latency against brute-force
	// resistance; experiment E5 sweeps this parameter.
	DefaultKDFIterations = 65536

	// MaxKDFIterations (64x the default) bounds the KDF work a container
	// header can demand. The count is read from the container itself —
	// an on-disk entry, or a blob a repository returns to RETRIEVE — so
	// without a bound one crafted header buys seconds of CPU per attempt.
	// SealBytes enforces the same bound, so every sealed container opens.
	MaxKDFIterations = 1 << 22
)

// ErrBadPassphrase is returned when a sealed key cannot be opened with the
// supplied pass phrase (or the container was tampered with — the two cases
// are indistinguishable by design with an AEAD).
var ErrBadPassphrase = errors.New("pki: incorrect pass phrase or corrupted key")

// SealBytes encrypts arbitrary plaintext under the pass phrase.
func SealBytes(plaintext, passphrase []byte, iter int) ([]byte, error) {
	if iter <= 0 {
		iter = DefaultKDFIterations
	}
	if iter > MaxKDFIterations {
		return nil, fmt.Errorf("pki: %d KDF iterations exceeds the maximum of %d", iter, MaxKDFIterations)
	}
	salt := make([]byte, sealSaltLen)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return nil, fmt.Errorf("pki: salt: %w", err)
	}
	key := kdf.SHA256Key(passphrase, salt, iter, sealKeyLen)
	defer WipeBytes(key) // the cipher keeps its own schedule; drop ours
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("pki: nonce: %w", err)
	}
	out := make([]byte, 0, len(sealMagic)+4+len(salt)+len(nonce)+len(plaintext)+gcm.Overhead())
	out = append(out, sealMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(iter))
	out = append(out, salt...)
	out = append(out, nonce...)
	out = gcm.Seal(out, nonce, plaintext, []byte(sealMagic))
	return out, nil
}

// OpenBytes decrypts a container produced by SealBytes. The plaintext is
// key material: the caller inherits the obligation to WipeBytes it once
// decoded.
//
//myproxy:secret
func OpenBytes(container, passphrase []byte) ([]byte, error) {
	header := len(sealMagic) + 4 + sealSaltLen + 12
	if len(container) < header || string(container[:len(sealMagic)]) != sealMagic {
		return nil, errors.New("pki: not a sealed key container")
	}
	p := len(sealMagic)
	iter := int(binary.BigEndian.Uint32(container[p : p+4]))
	if iter <= 0 || iter > MaxKDFIterations {
		return nil, errors.New("pki: implausible KDF iteration count")
	}
	p += 4
	salt := container[p : p+sealSaltLen]
	p += sealSaltLen
	key := kdf.SHA256Key(passphrase, salt, iter, sealKeyLen)
	defer WipeBytes(key) // the cipher keeps its own schedule; drop ours
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := container[p : p+gcm.NonceSize()]
	p += gcm.NonceSize()
	plaintext, err := gcm.Open(nil, nonce, container[p:], []byte(sealMagic))
	if err != nil {
		return nil, ErrBadPassphrase
	}
	return plaintext, nil
}

// EncryptKeyPEM seals a private key under the pass phrase and renders it as
// an ENCRYPTED GRID KEY PEM block. iter <= 0 selects DefaultKDFIterations.
func EncryptKeyPEM(key crypto.Signer, passphrase []byte, iter int) ([]byte, error) {
	der, err := marshalKeyDER(key)
	if err != nil {
		return nil, err
	}
	defer WipeBytes(der)
	container, err := SealBytes(der, passphrase, iter)
	if err != nil {
		return nil, err
	}
	return pem.EncodeToMemory(&pem.Block{Type: pemTypeEncrypted, Bytes: container}), nil
}

// DecryptKeyPEM opens the first ENCRYPTED GRID KEY block with the pass
// phrase and parses the contained private key.
func DecryptKeyPEM(data, passphrase []byte) (crypto.Signer, error) {
	for block, rest := pem.Decode(data); block != nil; block, rest = pem.Decode(rest) {
		if block.Type != pemTypeEncrypted {
			continue
		}
		der, err := OpenBytes(block.Bytes, passphrase)
		if err != nil {
			return nil, err
		}
		key, err := parseKeyDER(der)
		WipeBytes(der) // parsed (or unparseable); the DER image is done
		if err != nil {
			return nil, fmt.Errorf("pki: parse decrypted key: %w", err)
		}
		return key, nil
	}
	return nil, errors.New("pki: no ENCRYPTED GRID KEY block found")
}
