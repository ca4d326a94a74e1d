package utility

import "testing"

func TestParallelFullMatrixMatchesSerial(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	serial := FullMatrix(NewEvaluator(run))
	for _, workers := range []int{1, 2, 4, 0} {
		parallel := ParallelFullMatrix(run, workers)
		r1, c1 := serial.Dims()
		r2, c2 := parallel.Dims()
		if r1 != r2 || c1 != c2 {
			t.Fatalf("shape mismatch %dx%d vs %dx%d", r1, c1, r2, c2)
		}
		for i := 0; i < r1; i++ {
			for j := 0; j < c1; j++ {
				if serial.At(i, j) != parallel.At(i, j) {
					t.Fatalf("workers=%d: cell (%d,%d) differs: %v vs %v",
						workers, i, j, serial.At(i, j), parallel.At(i, j))
				}
			}
		}
	}
}
