// Seeded [metric-name]: not a lowercase dotted name.
void f() { auto id = reg->Counter("Serving.QueueDepth"); }
