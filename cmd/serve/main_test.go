package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The test binary re-executes itself with SERVE_RUN_MAIN=1 so main() runs
// exactly as shipped: flag parsing, signal handling and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func serveCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SERVE_RUN_MAIN=1")
	return cmd
}

func TestBadMachineExitsTwo(t *testing.T) {
	out, err := serveCmd("-machine", "nope", "-addr", "127.0.0.1:0").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("-machine nope: err %v, want exit 2:\n%s", err, out)
	}
	if !strings.Contains(string(out), "serve:") {
		t.Fatalf("no diagnostic:\n%s", out)
	}
}

func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	cmd := serveCmd("-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Stream stderr lines; the listening line means the signal handler is
	// installed, so SIGTERM goes to the drain path, not the default action.
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var log []string
	timeout := time.After(30 * time.Second)
	for listening := false; !listening; {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Wait()
				t.Fatalf("serve exited before listening:\n%s", strings.Join(log, "\n"))
			}
			log = append(log, line)
			listening = strings.Contains(line, "listening on")
		case <-timeout:
			cmd.Process.Kill()
			for line := range lines {
				log = append(log, line)
			}
			cmd.Wait()
			t.Fatalf("serve did not start listening:\n%s", strings.Join(log, "\n"))
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		log = append(log, line)
	}
	out := strings.Join(log, "\n")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve after SIGTERM: %v, want exit 0:\n%s", err, out)
	}
	if !strings.Contains(out, "serve: drained") {
		t.Fatalf("no drained line after SIGTERM:\n%s", out)
	}
}
