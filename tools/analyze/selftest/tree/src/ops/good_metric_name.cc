void f(const std::string& prefix) {
  auto id = reg->Counter("serving.accepted");
  // dynamic family: no literal right after the paren, exempt
  auto h = reg->Histogram(prefix + ".candidates");
}
