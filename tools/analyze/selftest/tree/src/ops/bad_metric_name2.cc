// Seeded [metric-name]: well formed, but not in metric_names.h.
void f() { auto id = reg->Histogram("serving.undeclared_hist"); }
