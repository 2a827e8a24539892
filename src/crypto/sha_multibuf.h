// The 8-lane multi-buffer SHA path is gone: single-message SHA-NI hashing
// (crypto/digest.h) rebuilds Merkle levels faster with the same digests.
// ShaMultiBufEnabled() stays only because the standing benchmark prints it
// on its provenance line; it always reports false.
#ifndef SPAUTH_CRYPTO_SHA_MULTIBUF_H_
#define SPAUTH_CRYPTO_SHA_MULTIBUF_H_

namespace spauth {

inline bool ShaMultiBufEnabled() { return false; }

}  // namespace spauth

#endif  // SPAUTH_CRYPTO_SHA_MULTIBUF_H_
