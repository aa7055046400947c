package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The host's speed drifts by tens of percent for minutes at a time, with
// the load of its other tenants: two runs of the same code a few minutes
// apart differ by more than any useful bound. The benchmark therefore
// measures the host itself between every two units of work, when no
// process of the program is doing anything: the median round trip of a
// small message over loopback TCP to an echo process of the benchmark's
// own. That round trip crosses the same kernel, scheduler and CPUs as
// every request and tracks the drift of every timing the benchmark takes;
// no program change can move it. Each end-to-end time is then reported
// scaled to a host whose reference round trip is echoNominalUS.
const (
	echoNominalUS = 30.0
	echoTrips     = 2000
	echoGap       = 100 * time.Microsecond // between trips, as between open-loop arrivals
)

// hostScale is the factor that scales a time measured between two
// references to the nominal host.
func hostScale(beforeUS, afterUS float64) float64 {
	return echoNominalUS / ((beforeUS + afterUS) / 2)
}

// echoForever is the body of the echo process: it listens on loopback,
// prints its address and echoes every connection.
func echoForever() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	for {
		c, err := ln.Accept()
		if err != nil {
			os.Exit(1)
		}
		go func() {
			_, _ = io.Copy(c, c)
			_ = c.Close()
		}()
	}
}

// echoRefUS measures the median round trip of a 256-byte message to a
// fresh echo process over loopback.
func echoRefUS() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-echo")
	cmd.SysProcAttr = childAttr()
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	defer stopChild(cmd)
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return 0, err
	}
	c, err := net.Dial("tcp", strings.TrimSpace(addr))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	msg := make([]byte, 256)
	buf := make([]byte, 256)
	rtt := make([]float64, 0, echoTrips)
	for i := 0; i < echoTrips; i++ {
		t0 := time.Now()
		if _, err := c.Write(msg); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return 0, err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		nanosleep(echoGap)
	}
	return median(rtt), nil
}
