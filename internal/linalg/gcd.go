package linalg

// GCD returns the non-negative greatest common divisor of a and b.
// GCD(0, 0) is 0.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GCDAll returns the non-negative GCD of all entries (0 for an empty or
// all-zero input).
func GCDAll(xs ...int64) int64 {
	var g int64
	for _, x := range xs {
		g = GCD(g, x)
		if g == 1 {
			return 1
		}
	}
	return g
}

// FloorDiv returns ⌊a/b⌋ for b > 0 (division rounded toward negative
// infinity, unlike Go's truncated division).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Mod returns the mathematical a mod b in [0, |b|) for b != 0.
func Mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		if b < 0 {
			m -= b
		} else {
			m += b
		}
	}
	return m
}
