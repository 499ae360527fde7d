// Seeded [layering]: knn has no edge to kernels.
#include "kernels/good_layer.h"
