package linalg

import "fmt"

// SGDUpdate is the factor half of one SGD step of a factor model (mf.RSVD,
// rank's regression loss), given the step's error err = r − r̂, for every f
// below len(pu), from the values both rows held before the step:
//
//	pu[f] += lr·(err·qi[f] − reg·pu[f])
//	qi[f] += lr·(err·pu[f] − reg·qi[f])
//
// and, when nonNegative is set, a factor the update takes below zero becomes
// +0 (a −0 or a NaN stays). On an amd64 CPU with AVX-512 it is a kernel that
// updates 8 factors at a time; elsewhere it is the Go loop, with the same
// bits (DESIGN.md §12, "Training"). The rows must not overlap. It panics
// when qi is shorter than pu.
func SGDUpdate(pu, qi []float64, err, lr, reg float64, nonNegative bool) {
	if len(qi) < len(pu) {
		panic(fmt.Sprintf("linalg: SGDUpdate: len(qi) = %d < len(pu) = %d", len(qi), len(pu)))
	}
	sgdUpdate(pu, qi, err, lr, reg, nonNegative)
}

// sgdUpdateGeneric is the portable SGDUpdate.
func sgdUpdateGeneric(pu, qi []float64, err, lr, reg float64, nonNegative bool) {
	qi = qi[:len(pu)]
	for f := range pu {
		puf, qif := pu[f], qi[f]
		pu[f] += lr * (err*qif - reg*puf)
		qi[f] += lr * (err*puf - reg*qif)
		if nonNegative {
			if pu[f] < 0 {
				pu[f] = 0
			}
			if qi[f] < 0 {
				qi[f] = 0
			}
		}
	}
}
