/**
 * @file
 * InlineVector: a growable array of trivially copyable values that
 * keeps its first N elements inside the object and moves them to the
 * heap only when an (N+1)-th arrives.
 *
 * It exists for records kept by the thousand, such as one trace step's
 * per-service values: with N covering the usual count, each record
 * costs no heap block at all, and there is still no upper limit.
 */

#ifndef TWIG_COMMON_INLINE_VECTOR_HH
#define TWIG_COMMON_INLINE_VECTOR_HH

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace twig::common {

template <class T, std::size_t N>
class InlineVector
{
    static_assert(std::is_trivially_copyable_v<T> && N > 0);

  public:
    InlineVector() = default;
    InlineVector(const InlineVector &other) { copyFrom(other); }
    InlineVector(InlineVector &&other) noexcept { stealFrom(other); }
    ~InlineVector() { release(); }

    InlineVector &
    operator=(const InlineVector &other)
    {
        if (this != &other) {
            release();
            copyFrom(other);
        }
        return *this;
    }

    InlineVector &
    operator=(InlineVector &&other) noexcept
    {
        if (this != &other) {
            release();
            stealFrom(other);
        }
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T *data() const { return spilled() ? heap_.ptr : inline_; }
    T *data() { return spilled() ? heap_.ptr : inline_; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    T &operator[](std::size_t i) { return data()[i]; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }
    T *begin() { return data(); }
    T *end() { return data() + size_; }

    void
    push_back(const T &value)
    {
        const T v = value; // may be one of ours, freed by a regrow
        if (size_ < N) {
            inline_[size_++] = v;
            return;
        }
        const std::size_t cap = spilled() ? heap_.cap : N;
        if (size_ == cap) {
            T *grown = new T[2 * cap];
            std::memcpy(grown, data(), size_ * sizeof(T));
            const std::size_t n = size_;
            release();
            heap_ = {grown, 2 * cap};
            size_ = n;
        }
        heap_.ptr[size_++] = v;
    }

  private:
    struct Heap
    {
        T *ptr;
        std::size_t cap;
    };

    bool spilled() const { return size_ > N; }

    /** Free the heap block, if any, leaving the vector empty. */
    void
    release()
    {
        if (spilled())
            delete[] heap_.ptr;
        size_ = 0;
    }

    /** Copy @p other into this empty object (left empty if the
     * allocation throws). */
    void
    copyFrom(const InlineVector &other)
    {
        if (other.spilled()) {
            T *copy = new T[other.heap_.cap];
            std::memcpy(copy, other.heap_.ptr, other.size_ * sizeof(T));
            heap_ = {copy, other.heap_.cap};
        } else {
            std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
        }
        size_ = other.size_;
    }

    /** Take @p other's elements into this empty object and leave
     * @p other empty. */
    void
    stealFrom(InlineVector &other)
    {
        size_ = other.size_;
        if (spilled())
            heap_ = other.heap_;
        else
            std::memcpy(inline_, other.inline_, size_ * sizeof(T));
        other.size_ = 0;
    }

    std::size_t size_ = 0;
    union
    {
        T inline_[N] = {};
        Heap heap_;
    };
};

} // namespace twig::common

#endif // TWIG_COMMON_INLINE_VECTOR_HH
