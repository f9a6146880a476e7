//! Prints which SHA-256 and AES kernels this CPU gets, so a CI log says
//! what its test run exercised (`scripts/check.sh` calls this).

fn main() {
    println!(
        "crypto backends: sha256 {}, aes {}",
        sc_crypto::sha256::backend(),
        sc_crypto::aes::backend()
    );
}
