// Seeded [orphan-module]: only its own .cc and a test include it.
#pragma once
