// Seeded [metric-args]: the increment vanishes with the macro.
void f(int x) { HAMMING_METRIC_ADD(reg, id, ++x); }
