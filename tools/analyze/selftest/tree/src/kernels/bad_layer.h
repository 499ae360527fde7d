// Seeded [layering]: kernels must never reach the MapReduce runtime.
#pragma once
#include "mapreduce/job.h"
