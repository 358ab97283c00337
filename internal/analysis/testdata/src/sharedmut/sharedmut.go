// Fixture for the sharedmut analyzer.
package sharedmut

import "sync"

type state struct {
	mu    sync.Mutex
	count int
}

func flaggedAccumulator(n int) int {
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			total += k // want "goroutine writes total"
		}(i)
	}
	wg.Wait()
	return total
}

func flaggedField(s *state) {
	go func() {
		s.count++ // want "goroutine writes s.count"
	}()
}

func flaggedPointer(p *int) {
	go func() {
		*p = 1 // want "goroutine writes *p"
	}()
}

func cleanMutex(s *state) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.count++
	}()
}

func cleanSlots(outs []int, n int) {
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			outs[p] = p * p // distinct slot per worker: clean
		}(p)
	}
	wg.Wait()
}

func cleanLocal() {
	go func() {
		local := 0
		local++
		_ = local
	}()
}

func cleanOnce(errs []error) error {
	var first error
	var once sync.Once
	var wg sync.WaitGroup
	for _, err := range errs {
		wg.Add(1)
		go func(err error) {
			defer wg.Done()
			once.Do(func() { first = err }) // sync.Once runs it once: clean
		}(err)
	}
	wg.Wait()
	return first
}

func flaggedBesideOnce(s *state) {
	var once sync.Once
	go func() {
		once.Do(func() { s.count = 1 })
		s.count++ // want "goroutine writes s.count"
	}()
}
