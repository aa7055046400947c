package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runAsSelserve makes the test binary run main instead of the tests, so a
// test can start selserve as a child process from its own executable.
const runAsSelserve = "SELSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsSelserve) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBinListenerBindFailureExits: when -listen-bin cannot be bound,
// selserve must exit 1 at start-up with the bind error, not serve HTTP
// alone until it is signalled.
func TestBinListenerBindFailureExits(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-addr", "127.0.0.1:0", "-listen-bin", held.Addr().String())
	cmd.Env = append(os.Environ(), runAsSelserve+"=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("selserve still running 10s after start with its -listen-bin port taken:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("selserve exited with %v, want exit status 1:\n%s", err, out)
	}
	if !strings.Contains(string(out), "address already in use") {
		t.Fatalf("output does not report the bind error:\n%s", out)
	}
}
