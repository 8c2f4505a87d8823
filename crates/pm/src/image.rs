//! A device's bytes: zero until written, resident only where written.
//!
//! On Linux the image is an anonymous private mapping of its own: the
//! kernel backs a page when it is first written and takes the pages back at
//! drop. A heap image (`vec![0; capacity]`) can be resident in full before
//! anything is written: a block that size may be served from memory an
//! earlier deployment freed and glibc had handed back to the kernel, and
//! `calloc` zero-fills every page of it — a 16 MiB device holding a 1 MiB
//! log cost 16 MiB (`tests/image_residency.rs`).

#[cfg(not(target_os = "linux"))]
pub(crate) type Image = Box<[u8]>;

#[cfg(not(target_os = "linux"))]
pub(crate) fn zeroed(len: usize) -> Image {
    vec![0; len].into_boxed_slice()
}

#[cfg(target_os = "linux")]
pub(crate) use mapped::{zeroed, Image};

#[cfg(target_os = "linux")]
mod mapped {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: c_long) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    /// `len` bytes of a mapping owned exclusively, like a `Box<[u8]>`.
    pub(crate) struct Image {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `ptr` and `len` describe a mapping no other value refers to,
    // and its bytes are reached only through `&self` / `&mut self` — the
    // same ownership a `Box<[u8]>` has, which is `Send` and `Sync`.
    unsafe impl Send for Image {}
    unsafe impl Sync for Image {}

    pub(crate) fn zeroed(len: usize) -> Image {
        if len == 0 {
            return Image { ptr: NonNull::dangling(), len };
        }
        // SAFETY: a fresh anonymous mapping aliases nothing; the kernel
        // hands it out zero-filled.
        let addr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0) };
        assert!(addr as isize != -1, "mapping a {len}-byte PM image failed");
        Image { ptr: NonNull::new(addr.cast()).expect("a mapping is never at null"), len }
    }

    impl Drop for Image {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: the mapping `zeroed` made, unmapped once.
                unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }

    impl std::ops::Deref for Image {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: `len` zero-initialised bytes owned by `self`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl std::ops::DerefMut for Image {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }
}
