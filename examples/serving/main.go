// Serving: boot the online inference service over a pool of simulated
// PIM devices, send it real HTTP traffic, and watch the dynamic batcher
// pack concurrent requests one-per-pseudo-channel into single kernel
// launches. Everything runs in this process: the server owns two
// simulated shards, the load generator talks to it over a loopback
// socket exactly the way a remote client would.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"pimsim/internal/loadgen"
	"pimsim/internal/serve"
)

func main() {
	// An inference server: 2 simulated PIM shards x 4 pseudo channels,
	// the default model set resident in the banks, dynamic batching up to
	// the channel count with a 2ms flush window.
	s, err := serve.New(serve.Config{Shards: 2, Channels: 4})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("pimserve up at %s\n", base)

	// One ad-hoc inference, the way curl would do it.
	spec := s.Models()[0]
	for _, m := range s.Models() {
		if m.Name == "rnnt-joint2" {
			spec = m
		}
	}
	input := make([]float64, spec.K)
	for i := range input {
		input[i] = 0.25
	}
	body, _ := json.Marshal(map[string]any{"model": spec.Name, "input": input})
	resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var ir serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("single inference on %s (%dx%d): %d outputs, batch %d, %d device cycles on shard %d\n",
		spec.Name, spec.M, spec.K, len(ir.Output), ir.BatchSize, ir.KernelCycles, ir.Shard)

	// Now a burst: the closed-loop generator keeps 8 requests in flight,
	// so the batcher packs them 4-per-kernel (one per channel) and the
	// simulated device retires ~4x the requests per busy cycle.
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     base,
		Source:      loadgen.GemvSource(spec, 8, true), // check every output against the software oracle
		Concurrency: 8, Requests: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclosed-loop burst:\n%s", rep)

	// Graceful shutdown: stop the listener, then drain the pipeline —
	// every accepted request still gets its response.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrained cleanly: zero accepted requests dropped")
}
