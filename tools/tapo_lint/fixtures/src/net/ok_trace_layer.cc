// Fixture: trace-retain is exempt inside src/net/ — the trace/chunk layer
// itself is the sanctioned home of arena retention (a TraceChunk's arena,
// any layer-internal pointer into a PacketTrace).
namespace tapo::net {

class PacketTrace;

class ArenaWriterLike {
 private:
  PacketTrace* trace_ = nullptr;  // fine here: the layer manages lifetime
};

}  // namespace tapo::net
