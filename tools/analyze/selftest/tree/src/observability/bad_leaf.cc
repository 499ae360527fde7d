// Seeded [layering]: observability sits below storage.
#include "storage/file_io.h"
