//! Offline drop-in subset of the `crossbeam` 0.8 API.
//!
//! The workspace only uses `crossbeam::channel::{bounded, Sender,
//! Receiver}` (the result channel of the experiment engine's
//! work-stealing pool), which maps directly onto `std::sync::mpsc` sync
//! channels. See `[patch.crates-io]` in the root manifest.

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;

    /// Bounded channel; capacity 0 gives rendezvous semantics, exactly
    /// like `crossbeam_channel::bounded(0)`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }

    /// Sending half (clonable, like crossbeam's).
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until a receiver takes the message (capacity 0) or
        /// buffer space frees up; errors if all receivers dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
        }
    }

    /// Receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks for the next message; errors once the channel is
        /// empty and all senders dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    /// The message could not be delivered (receiver gone).
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn rendezvous_round_trip() {
            let (tx, rx) = bounded::<u32>(0);
            let h = std::thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv(), Ok(42));
            h.join().unwrap();
        }

        #[test]
        fn recv_errors_after_sender_drop() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
