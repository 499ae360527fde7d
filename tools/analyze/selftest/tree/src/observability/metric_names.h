#pragma once
inline constexpr char kServingAccepted[] = "serving.accepted";
