void f(int x) { HAMMING_METRIC_ADD(reg, id, x <= 3 ? 1 : 2); }
