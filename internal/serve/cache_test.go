package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func okResp(body string) cachedResponse {
	return cachedResponse{status: 200, contentType: "application/json", body: []byte(body), cacheable: true}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := newQueryCache(4)
	fills := 0
	fill := func() cachedResponse { fills++; return okResp("a") }
	ctx := context.Background()

	resp, state, err := c.do(ctx, "k", fill)
	if err != nil || state != cacheMiss || string(resp.body) != "a" {
		t.Fatalf("first do = %v %v %v", resp, state, err)
	}
	resp, state, err = c.do(ctx, "k", fill)
	if err != nil || state != cacheHit || string(resp.body) != "a" {
		t.Fatalf("second do = %v %v %v", resp, state, err)
	}
	if fills != 1 {
		t.Errorf("fills = %d, want 1", fills)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		k := k
		c.do(ctx, k, func() cachedResponse { return okResp(k) })
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	// "a" is the cold entry and must have been evicted; "c" must be warm.
	refilled := false
	c.do(ctx, "a", func() cachedResponse { refilled = true; return okResp("a") })
	if !refilled {
		t.Error("evicted entry served from cache")
	}
	_, state, _ := c.do(ctx, "c", func() cachedResponse { return okResp("c") })
	if state != cacheHit {
		t.Errorf("recent entry state = %v, want hit", state)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newQueryCache(4)
	ctx := context.Background()
	fills := 0
	fill := func() cachedResponse {
		fills++
		return cachedResponse{status: 429, body: []byte("no"), cacheable: false}
	}
	c.do(ctx, "k", fill)
	c.do(ctx, "k", fill)
	if fills != 2 {
		t.Errorf("fills = %d, want 2 (errors must not be cached)", fills)
	}
}

func TestCacheCoalescesConcurrentIdenticalRequests(t *testing.T) {
	c := newQueryCache(4)
	gate := make(chan struct{})
	var fills atomic.Int64
	leaderIn := make(chan struct{})
	fill := func() cachedResponse {
		fills.Add(1)
		close(leaderIn)
		<-gate
		return okResp("shared")
	}

	var wg sync.WaitGroup
	var coalesced atomic.Int64
	results := make([]string, 8)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		resp, _, _ := c.do(context.Background(), "k", fill)
		results[0] = string(resp.body)
	}()
	<-leaderIn
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, state, err := c.do(context.Background(), "k", func() cachedResponse {
				t.Error("follower ran fill")
				return okResp("follower")
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			if state == cacheCoalesced {
				coalesced.Add(1)
			}
			results[i] = string(resp.body)
		}(i)
	}
	// Give the followers time to park on the in-flight entry, then let the
	// leader finish.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if fills.Load() != 1 {
		t.Errorf("fills = %d, want 1", fills.Load())
	}
	if coalesced.Load() == 0 {
		t.Error("no follower was coalesced")
	}
	for i, r := range results {
		if r != "shared" {
			t.Errorf("request %d got %q, want shared", i, r)
		}
	}
}

func TestCacheCoalescedFollowerHonorsDeadline(t *testing.T) {
	c := newQueryCache(4)
	gate := make(chan struct{})
	defer close(gate)
	leaderIn := make(chan struct{})
	go c.do(context.Background(), "k", func() cachedResponse {
		close(leaderIn)
		<-gate
		return okResp("late")
	})
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := c.do(ctx, "k", func() cachedResponse { return okResp("x") })
	if err == nil {
		t.Fatal("follower with expired deadline got no error")
	}
}

// TestCachePanickingLeaderReleasesKey is the wedged-key regression test:
// before the deferred cleanup in do, a fill that panicked left its key in
// the in-flight table forever, so every later request for that key
// coalesced onto a flight that would never close.
func TestCachePanickingLeaderReleasesKey(t *testing.T) {
	c := newQueryCache(4)
	ctx := context.Background()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader's panic did not propagate out of do")
			}
		}()
		c.do(ctx, "k", func() cachedResponse { panic("boom") })
	}()

	// The key must be free again: a second request becomes a fresh leader
	// and completes instead of hanging on the dead flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, state, err := c.do(ctx, "k", func() cachedResponse { return okResp("retry") })
		if err != nil || state != cacheMiss || string(resp.body) != "retry" {
			t.Errorf("retry after panic = %v %v %v, want fresh miss", resp, state, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second request for the panicked key hung")
	}
}

// TestCachePanickingLeaderReleasesFollowers checks the other half of the
// cleanup: followers already parked on the flight when the leader panics
// must wake with a rendered 500, not block until their contexts expire.
func TestCachePanickingLeaderReleasesFollowers(t *testing.T) {
	c := newQueryCache(4)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	go func() {
		defer func() { recover() }()
		c.do(context.Background(), "k", func() cachedResponse {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-leaderIn

	followerDone := make(chan cachedResponse, 1)
	go func() {
		resp, state, err := c.do(context.Background(), "k", func() cachedResponse {
			t.Error("follower ran fill")
			return okResp("follower")
		})
		if err != nil || state != cacheCoalesced {
			t.Errorf("follower outcome = %v %v, want coalesced", state, err)
		}
		followerDone <- resp
	}()
	// Let the follower park on the flight, then spring the panic.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case resp := <-followerDone:
		if resp.status != 500 {
			t.Errorf("follower of panicked leader got status %d, want 500", resp.status)
		}
		if resp.cacheable {
			t.Error("panic response marked cacheable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after the leader panicked")
	}
	if c.len() != 0 {
		t.Errorf("cache len = %d after panic, want 0", c.len())
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := newQueryCache(64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", i%16)
			resp, _, err := c.do(context.Background(), k, func() cachedResponse { return okResp(k) })
			if err != nil || string(resp.body) != k {
				t.Errorf("key %s: %v %v", k, resp, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestSimulateRunsKeepPriceAnswersCached sends k unique /simulate runs
// between probes of a hot /price set. Each lane has its own LRU, so the
// heavy lane's entries never push the cheap lane's out; with one LRU shared
// by both lanes every probe after the first round would miss, since hot
// keys plus k simulations per key overflow the capacity.
func TestSimulateRunsKeepPriceAnswersCached(t *testing.T) {
	const entries, hot, k = 16, 2, 8
	_, ts := newTestServer(t, Options{CacheEntries: entries})
	priceURL := func(i int) string { return fmt.Sprintf("%s/price?alg=matmul&n=4096&p=%d", ts.URL, 64<<i) }
	for i := 0; i < hot; i++ {
		if code, body, _ := get(t, priceURL(i)); code != 200 {
			t.Fatalf("warm price %d = %d %v", i, code, body)
		}
	}
	seed, misses := 0, 0
	for round := 0; round < 3; round++ {
		for i := 0; i < hot; i++ {
			for j := 0; j < k; j++ {
				seed++
				url := fmt.Sprintf("%s/simulate?alg=matmul25d&n=8&q=2&c=1&seed=%d", ts.URL, seed)
				if code, body, _ := get(t, url); code != 200 {
					t.Fatalf("simulate seed=%d = %d %v", seed, code, body)
				}
			}
			code, body, hdr := get(t, priceURL(i))
			if code != 200 {
				t.Fatalf("probe %d = %d %v", i, code, body)
			}
			if hdr.Get("X-Cache") != "hit" {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Errorf("%d of %d /price probes missed after %d unique /simulate runs each", misses, 3*hot, k)
	}
}
