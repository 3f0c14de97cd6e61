package repro

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pki"
)

// TestCLIEndToEnd exercises the command-line tools as a user would
// (paper §2.5 and §4): create a CA and credentials with grid-ca, make a
// proxy with grid-proxy-init, run myproxy-server, deposit with
// myproxy-init, retrieve with myproxy-get-delegation from a different
// identity, inspect with myproxy-info and grid-proxy-info, and clean up
// with myproxy-destroy.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full CLI suite")
	}
	bin := builtBinaries(t)
	work := t.TempDir()

	run := func(stdin string, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		if stdin != "" {
			cmd.Stdin = strings.NewReader(stdin)
		}
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// CA and credentials.
	run("", "grid-ca", "init", "-dir", "ca", "-name", "/C=US/O=CLI Grid/CN=CLI CA", "-bits", "1024")
	run("", "grid-ca", "user", "-dir", "ca", "-cn", "Alice CLI", "-out", "alice.pem", "-bits", "1024")
	run("", "grid-ca", "host", "-dir", "ca", "-hostname", "localhost", "-out", "myproxy-host.pem", "-bits", "1024")
	run("", "grid-ca", "host", "-dir", "ca", "-hostname", "portal.cli", "-out", "portal.pem", "-bits", "1024")
	if out := run("", "grid-ca", "show", "-dir", "ca"); !strings.Contains(out, "CLI CA") {
		t.Fatalf("grid-ca show: %s", out)
	}

	// grid-proxy-init + grid-proxy-info.
	run("", "grid-proxy-init", "-cred", "alice.pem", "-out", "alice-proxy.pem", "-hours", "4", "-bits", "1024")
	info := run("", "grid-proxy-info", "-file", "alice-proxy.pem")
	if !strings.Contains(info, "identity : /C=US/O=CLI Grid/CN=Alice CLI") ||
		!strings.Contains(info, "RFC 3820 proxy") {
		t.Fatalf("grid-proxy-info:\n%s", info)
	}

	// ACL files.
	mustWrite(t, filepath.Join(work, "accepted"), "/C=US/O=CLI Grid/*\n")
	mustWrite(t, filepath.Join(work, "retrievers"), "\"/C=US/O=CLI Grid/CN=portal.cli\"\n")

	// Start the repository on a private port.
	addr := freeAddr(t)
	server := exec.Command(filepath.Join(bin, "myproxy-server"),
		"-listen", addr,
		"-cred", "myproxy-host.pem",
		"-ca", filepath.Join("ca", "ca-cert.pem"),
		"-store", "store",
		"-accepted", "accepted",
		"-retrievers", "retrievers",
		"-kdf-iter", "1024",
	)
	server.Dir = work
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	waitForListen(t, addr)

	common := []string{"-s", addr, "-ca", filepath.Join("ca", "ca-cert.pem"), "-serverdn", "*/CN=localhost"}

	// myproxy-init as alice (pass phrase prompted twice).
	out := run("cli pass phrase\ncli pass phrase\n", "myproxy-init",
		append([]string{"-l", "alice", "-cred", "alice-proxy.pem", "-c", "24"}, common...)...)
	if !strings.Contains(out, "now exists") {
		t.Fatalf("myproxy-init: %s", out)
	}

	// myproxy-info.
	out = run("cli pass phrase\n", "myproxy-info",
		append([]string{"-l", "alice", "-cred", "alice-proxy.pem"}, common...)...)
	if !strings.Contains(out, "owner:      /C=US/O=CLI Grid/CN=Alice CLI") {
		t.Fatalf("myproxy-info: %s", out)
	}

	// myproxy-get-delegation as the portal.
	out = run("cli pass phrase\n", "myproxy-get-delegation",
		append([]string{"-l", "alice", "-cred", "portal.pem", "-o", "retrieved.pem", "-t", "1"}, common...)...)
	if !strings.Contains(out, "A proxy has been received") {
		t.Fatalf("myproxy-get-delegation: %s", out)
	}
	info = run("", "grid-proxy-info", "-file", "retrieved.pem")
	if !strings.Contains(info, "identity : /C=US/O=CLI Grid/CN=Alice CLI") ||
		!strings.Contains(info, "depth    : 3") {
		t.Fatalf("retrieved proxy info:\n%s", info)
	}

	// Wrong pass phrase is refused.
	cmd := exec.Command(filepath.Join(bin, "myproxy-get-delegation"),
		append([]string{"-l", "alice", "-cred", "portal.pem", "-o", "nope.pem"}, common...)...)
	cmd.Dir = work
	cmd.Stdin = strings.NewReader("wrong pass\n")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("wrong pass phrase succeeded: %s", out)
	}

	// myproxy-destroy, then retrieval fails.
	run("cli pass phrase\n", "myproxy-destroy",
		append([]string{"-l", "alice", "-cred", "alice-proxy.pem"}, common...)...)
	cmd = exec.Command(filepath.Join(bin, "myproxy-get-delegation"),
		append([]string{"-l", "alice", "-cred", "portal.pem", "-o", "nope.pem"}, common...)...)
	cmd.Dir = work
	cmd.Stdin = strings.NewReader("cli pass phrase\n")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("retrieval after destroy succeeded: %s", out)
	}
}

// TestCLIRefusesExcessiveKDFIter checks that the sealing servers refuse,
// at start-up, an iteration count whose containers pki.OpenBytes would
// refuse to open.
func TestCLIRefusesExcessiveKDFIter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI suite")
	}
	bin := builtBinaries(t)
	for _, name := range []string{"myproxy-server", "myproxy-http-gateway"} {
		cmd := exec.Command(filepath.Join(bin, name), "-kdf-iter", fmt.Sprint(pki.MaxKDFIterations+1))
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-kdf-iter") {
			t.Errorf("%s -kdf-iter %d: err %v, output %q", name, pki.MaxKDFIterations+1, err, out)
		}
	}
}

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// builtBinaries compiles cmd/... once per test process.
func builtBinaries(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "repro-bin-")
		if binErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
		build.Stderr = os.Stderr
		binErr = build.Run()
	})
	if binErr != nil {
		t.Fatalf("go build ./cmd/...: %v", binErr)
	}
	return binDir
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitForListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("server never listened on %s", addr))
}
