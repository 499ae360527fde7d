// Seeded [metric-name]: a registration hidden in a macro body.
#define REGISTER_DEPTH(reg) (reg)->Counter("Serving.QueueDepth")
