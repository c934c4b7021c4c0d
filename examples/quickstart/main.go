// Quickstart: the Green BSP library in one file.
//
// Four processes run a total exchange with the three core operations
// (SendPkt, GetPkt, Sync), then build higher-level collectives on top of
// them, and finally print the measured BSP program parameters (W, H, S)
// with the cost model's predictions for the paper's three machines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

func main() {
	const p = 4
	stats, err := core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, func(c *core.Proc) {
		// Superstep 1: every process sends one packet to every process.
		var pkt core.Pkt
		pkt[0] = byte(c.ID())
		for dst := 0; dst < p; dst++ {
			c.SendPkt(dst, &pkt)
		}
		c.Sync()
		// The packets sent in the previous superstep are now available.
		sum := 0
		for {
			got, ok := c.GetPkt()
			if !ok {
				break
			}
			sum += int(got[0])
		}
		if sum != p*(p-1)/2 {
			log.Fatalf("process %d received rank-sum %d, want %d", c.ID(), sum, p*(p-1)/2)
		}
		if c.ID() == 0 {
			fmt.Printf("process 0 received rank-sum %d (want %d)\n", sum, p*(p-1)/2)
		}
		// Collectives are built from the same three primitives.
		total := collect.AllReduce(c, float64(c.ID()+1), collect.SumFloat)
		if total != p*(p+1)/2 {
			log.Fatalf("process %d: AllReduce sum %.0f, want %d", c.ID(), total, p*(p+1)/2)
		}
		if c.ID() == 0 {
			fmt.Printf("AllReduce sum over ranks+1: %.0f (want %d)\n", total, p*(p+1)/2)
		}
		msg := collect.Broadcast(c, 0, []byte("hello, BSP"))
		if string(msg) != "hello, BSP" {
			log.Fatalf("process %d received broadcast %q", c.ID(), msg)
		}
		if c.ID() == p-1 {
			fmt.Printf("process %d received broadcast: %s\n", c.ID(), msg)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBSP program parameters: W=%v H=%d packets S=%d supersteps\n",
		stats.W(), stats.H(), stats.S())
	for _, m := range cost.PaperMachines() {
		fmt.Printf("  predicted time on %-5s (Figure 2.1 g,L): %v\n",
			m.Name, m.Predict(p, stats.W(), stats.H(), stats.S()))
	}
}
