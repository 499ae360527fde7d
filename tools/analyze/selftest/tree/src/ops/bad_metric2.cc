// Seeded [metric-args]: a compound assignment.
void f(int x) { HAMMING_METRIC_SET(reg, id, x += 2); }
